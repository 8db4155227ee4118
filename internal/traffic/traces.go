package traffic

import (
	"math"
	"math/rand"
)

// DiurnalOpts parameterizes the synthetic GÉANT-like trace generator.
// The real dataset (Uhlig et al.: 15-min TMs over 15 days from 25 May
// 2005) is substituted by gravity-base × diurnal × weekly × correlated
// lognormal noise; see DESIGN.md §2.
type DiurnalOpts struct {
	Days        int     // default 15
	IntervalSec float64 // default 900 (15 minutes)
	// NightFloor is the off-peak demand as a fraction of the daily
	// peak (default 0.3 — ISP diurnal swing of ≈3×).
	NightFloor float64
	// WeekendFactor scales Saturday/Sunday demand (default 0.7).
	WeekendFactor float64
	// NoiseSigma is the stationary per-flow lognormal sigma (default
	// 0.18), applied via a mean-reverting log-space random walk so
	// consecutive intervals are correlated.
	NoiseSigma float64
	// MeanReversion is the AR(1) coefficient of the log-noise
	// (default 0.9: slowly wandering flows).
	MeanReversion float64
	// PeakHour is the local hour of maximum demand (default 15).
	PeakHour float64
	Seed     int64
}

func (o *DiurnalOpts) defaults() {
	if o.Days == 0 {
		o.Days = 15
	}
	if o.IntervalSec == 0 {
		o.IntervalSec = 900
	}
	if o.NightFloor == 0 {
		o.NightFloor = 0.3
	}
	if o.WeekendFactor == 0 {
		o.WeekendFactor = 0.7
	}
	if o.NoiseSigma == 0 {
		o.NoiseSigma = 0.18
	}
	if o.MeanReversion == 0 {
		o.MeanReversion = 0.9
	}
	if o.PeakHour == 0 {
		o.PeakHour = 15
	}
}

// DiurnalFactor returns the deterministic demand multiplier at a given
// time offset (seconds) for the options: a raised cosine peaking at
// PeakHour with the configured night floor, scaled down on weekends.
// The trace starts on a Wednesday (25 May 2005 was one).
func (o DiurnalOpts) DiurnalFactor(tSec float64) float64 {
	hours := tSec / 3600
	day := int(hours / 24)
	hod := hours - float64(day)*24
	x := 0.5 * (1 + math.Cos(2*math.Pi*(hod-o.PeakHour)/24))
	f := o.NightFloor + (1-o.NightFloor)*x
	weekday := (3 + day) % 7 // day 0 = Wednesday
	if weekday == 6 || weekday == 0 {
		f *= o.WeekendFactor
	}
	return f
}

// DiurnalSeries generates a trace by modulating the base matrix (whose
// rates are interpreted as the daily peak) with the diurnal profile and
// correlated per-flow noise.
func DiurnalSeries(base *Matrix, opts DiurnalOpts) *Series {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	demands := base.Demands()
	n := int(float64(opts.Days) * 24 * 3600 / opts.IntervalSec)
	s := &Series{IntervalSec: opts.IntervalSec}
	// Per-flow AR(1) state in log space.
	state := make([]float64, len(demands))
	innovSigma := opts.NoiseSigma * math.Sqrt(1-opts.MeanReversion*opts.MeanReversion)
	for i := range state {
		state[i] = rng.NormFloat64() * opts.NoiseSigma
	}
	for step := 0; step < n; step++ {
		t := float64(step) * opts.IntervalSec
		f := opts.DiurnalFactor(t)
		m := NewMatrix()
		for i, d := range demands {
			state[i] = opts.MeanReversion*state[i] + rng.NormFloat64()*innovSigma
			m.Set(d.O, d.D, d.Rate*f*math.Exp(state[i]))
		}
		s.Matrices = append(s.Matrices, m)
	}
	return s
}

// VolatileOpts parameterizes the Google-datacenter-like trace: 5-minute
// samples over 8 days with heavy multiplicative innovations calibrated
// so that roughly half of all intervals change total demand by >= 20 %
// (Figure 1a).
type VolatileOpts struct {
	Days        int     // default 8
	IntervalSec float64 // default 300 (5 minutes)
	Seed        int64
}

// The Figure 1a calibration of the volatile trace.
const (
	// volatileSigma is the sigma of the per-flow multiplicative walk:
	// the median |change| of exp(N(0,σ)) with mean reversion lands
	// near the paper's 20 % figure.
	volatileSigma float64 = 0.33
	// volatileMeanReversion pulls flows back toward their diurnal
	// mean: datacenter traffic decorrelates fast.
	volatileMeanReversion float64 = 0.5
	// volatileNightFloor is the trough of the mild day/night swing.
	volatileNightFloor float64 = 0.5
)

func (o *VolatileOpts) defaults() {
	if o.Days == 0 {
		o.Days = 8
	}
	if o.IntervalSec == 0 {
		o.IntervalSec = 300
	}
}

// VolatileSeries generates the Google-DC-like trace by perturbing the
// base matrix with fast-decorrelating multiplicative noise plus a mild
// diurnal swing.
func VolatileSeries(base *Matrix, opts VolatileOpts) *Series {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	demands := base.Demands()
	n := int(float64(opts.Days) * 24 * 3600 / opts.IntervalSec)
	s := &Series{IntervalSec: opts.IntervalSec}
	state := make([]float64, len(demands))
	innovSigma := volatileSigma * math.Sqrt(1-volatileMeanReversion*volatileMeanReversion)
	for i := range state {
		state[i] = rng.NormFloat64() * volatileSigma
	}
	diurnal := DiurnalOpts{
		Days:        opts.Days,
		IntervalSec: opts.IntervalSec,
		NightFloor:  volatileNightFloor,
		// Datacenters barely slow down on weekends.
		WeekendFactor: 0.95,
		NoiseSigma:    volatileSigma,
		MeanReversion: volatileMeanReversion,
		PeakHour:      15,
	}
	for step := 0; step < n; step++ {
		t := float64(step) * opts.IntervalSec
		f := diurnal.DiurnalFactor(t)
		m := NewMatrix()
		for i, d := range demands {
			state[i] = volatileMeanReversion*state[i] + rng.NormFloat64()*innovSigma
			m.Set(d.O, d.D, d.Rate*f*math.Exp(state[i]))
		}
		s.Matrices = append(s.Matrices, m)
	}
	return s
}

// TotalSeries returns the per-interval total demand of a series, the
// quantity whose 5-minute relative changes Figure 1a plots.
func TotalSeries(s *Series) []float64 {
	out := make([]float64, len(s.Matrices))
	for i, m := range s.Matrices {
		out[i] = m.Total()
	}
	return out
}

// Changes returns the percent relative change between consecutive
// matrices of a series (per-interval |ΔT|/T of the aggregate).
func Changes(s *Series) []float64 {
	if len(s.Matrices) < 2 {
		return nil
	}
	out := make([]float64, 0, len(s.Matrices)-1)
	for i := 1; i < len(s.Matrices); i++ {
		out = append(out, RelativeChange(s.Matrices[i-1], s.Matrices[i]))
	}
	return out
}

// PerFlowChanges returns the percent relative change of every
// individual (O,D) demand between consecutive intervals — the
// link-level deviation statistic of Figure 1a ("traffic deviation in a
// 5-min period (out)"), since in a datacenter each flow dominates the
// outbound traffic of its host link. Flows absent in the earlier
// interval are skipped.
func PerFlowChanges(s *Series) []float64 {
	if len(s.Matrices) < 2 {
		return nil
	}
	var out []float64
	for i := 1; i < len(s.Matrices); i++ {
		prev, cur := s.Matrices[i-1], s.Matrices[i]
		for _, d := range prev.Demands() {
			if d.Rate <= 0 {
				continue
			}
			delta := cur.Rate(d.O, d.D) - d.Rate
			if delta < 0 {
				delta = -delta
			}
			out = append(out, 100*delta/d.Rate)
		}
	}
	return out
}
