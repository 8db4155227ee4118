package tracestore

// Ingest and query benchmarks. The trace-drill workload of
// BENCHMARK.json measures ingest_events_per_s and drill_p50_ms on a
// 512Ki-event synthetic incident stream; these cover the same paths at
// Go-bench granularity so -benchmem regressions show up in the CI log.

import (
	"fmt"
	"testing"
)

// benchFill ingests n synthetic events: steady te/sim churn with an
// incident (5 failures + evacuation wave) opening every 10th window.
func benchFill(b *testing.B, s *Store, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		ts := float64(i) / 10
		window := i / 9000
		inWin := i % 9000
		var line string
		switch {
		case window%10 == 1 && inWin < 5:
			line = fmt.Sprintf(`{"ts":%g,"span":"sim","op":"fail","link":%d,"val":0.9}`, ts, (window*17+inWin*31)%200)
		case window%10 == 1 && inWin < 55:
			line = fmt.Sprintf(`{"ts":%g,"span":"te","op":"evacuate","flow":%d,"from":0,"to":1,"link":%d,"val":1}`,
				ts, i%5000, (window*17+(inWin%5)*31)%200)
		default:
			line = fmt.Sprintf(`{"ts":%g,"span":"te","op":"shift","flow":%d,"from":0,"to":1,"link":%d,"val":0.5}`,
				ts, i%5000, i%200)
		}
		if !s.IngestLine([]byte(line)) {
			b.Fatalf("line %d rejected", i)
		}
	}
}

func BenchmarkIngestLine(b *testing.B) {
	s := New(Opts{MaxEvents: 1 << 17})
	line := []byte(`{"ts":123.5,"span":"te","op":"shift","flow":42,"from":0,"to":1,"link":7,"val":0.25}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IngestLine(line)
	}
}

func BenchmarkWindowsQuery(b *testing.B) {
	s := New(Opts{})
	benchFill(b, s, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Windows(WindowQuery{MinSeverity: SevCritical})
	}
}

func BenchmarkSummary(b *testing.B) {
	s := New(Opts{})
	benchFill(b, s, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Summary("", 900); !ok {
			b.Fatal("incident window missing")
		}
	}
}

func BenchmarkCriticalPath(b *testing.B) {
	s := New(Opts{})
	benchFill(b, s, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := s.CriticalPathQuery("", 900, 10)
		if len(cp.Links) == 0 {
			b.Fatal("incident window empty")
		}
	}
}
