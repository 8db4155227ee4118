package trace

import (
	"bytes"
	"strings"
	"testing"

	"response/internal/stats"
)

func TestWritePoints(t *testing.T) {
	var buf bytes.Buffer
	err := WritePoints(&buf, "x", "y", []stats.Point{{X: 1, Y: 0.5}, {X: 2, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "x,y\n") || !strings.Contains(out, "1,0.5\n") {
		t.Errorf("output = %q", out)
	}
}
