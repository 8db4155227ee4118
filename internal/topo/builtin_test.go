package topo

import (
	"strings"
	"testing"
)

func TestBuiltin(t *testing.T) {
	for _, b := range builtins {
		g, err := Builtin(b.name)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", b.name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", b.name, err)
		}
		if !g.Connected() {
			t.Errorf("%s: not connected", b.name)
		}
	}
	_, err := Builtin("arpanet")
	if err == nil {
		t.Fatal(`Builtin("arpanet") succeeded`)
	}
	for _, b := range builtins {
		if !strings.Contains(err.Error(), b.name) {
			t.Errorf("error %q does not list %q", err, b.name)
		}
	}
}
