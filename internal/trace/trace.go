// Package trace is the runtime's serialization layer for everything
// observable: figure data and the online flight recorder.
//
// The CSV half (this file) writes the (X, Y) curves the paper-figure
// experiments export.
//
// The JSONL half (events.go) is the EventWriter flight recorder: an
// allocation-free, nil-safe structured event stream that the TE
// controller, simulator, lifecycle manager and chaos scenarios emit
// into — one self-contained JSON object per line with jaeger-style
// span/op fields and optional flow/link actors. Recorded streams are
// replayed by `response-analyze trace` and ingested live by
// response/tracestore for progressive-disclosure incident queries.
package trace

import (
	"encoding/csv"
	"io"
	"strconv"

	"response/internal/stats"
)

// WritePoints encodes an (X, Y) curve (CDF/CCDF/time series) as CSV.
func WritePoints(w io.Writer, xLabel, yLabel string, pts []stats.Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{xLabel, yLabel}); err != nil {
		return err
	}
	for _, p := range pts {
		rec := []string{
			strconv.FormatFloat(p.X, 'g', -1, 64),
			strconv.FormatFloat(p.Y, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
