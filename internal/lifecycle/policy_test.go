package lifecycle

import (
	"reflect"
	"strings"
	"testing"
)

// probePolicy is a valid policy that differs from the defaults in every
// field. TestPolicyRoundTrip holds it to that, so a field added to
// Policy has to be given a value here before the suite passes.
var probePolicy = Policy{
	Deviation:      0.3,
	Spread:         0.4,
	Hysteresis:     0.6,
	MinInterval:    700,
	ReplanDeadline: 50,
	RetryBase:      70,
	RetryMax:       800,
	DegradedAfter:  5,
	NoWarmStart:    true,
}

// TestPolicyRoundTrip proves one declaration is enough inside the
// package: every Policy field survives SetPolicy → Policy(), and
// survives construction through the Opts it is embedded in.
func TestPolicyRoundTrip(t *testing.T) {
	defaults := reflect.ValueOf(Opts{}.WithDefaults().Policy)
	probe := reflect.ValueOf(probePolicy)
	for i := 0; i < probe.NumField(); i++ {
		if reflect.DeepEqual(probe.Field(i).Interface(), defaults.Field(i).Interface()) {
			t.Errorf("probePolicy.%s equals its default: give the field a distinct valid value so the round trip can see it",
				probe.Type().Field(i).Name)
		}
	}

	r := newRig(t, 1, 1, 0.3)
	m := New(r.s, r.c, r.plan, r.sameReplan(), Opts{})
	if err := m.SetPolicy(probePolicy); err != nil {
		t.Fatalf("SetPolicy(probe): %v", err)
	}
	if got := m.Policy(); got != probePolicy {
		t.Errorf("SetPolicy → Policy() = %+v, want %+v", got, probePolicy)
	}
	built := New(r.s, r.c, r.plan, r.sameReplan(), Opts{Policy: probePolicy})
	if got := built.Policy(); got != probePolicy {
		t.Errorf("New(Opts{Policy: probe}).Policy() = %+v, want %+v", got, probePolicy)
	}
}

// TestPolicyEveryFieldBounded requires each Policy field to have a
// Validate clause — shown by a value Validate refuses — or an explicit
// note that it is unbounded, so a new field cannot reach a manager
// unexamined.
func TestPolicyEveryFieldBounded(t *testing.T) {
	refused := map[string]any{
		"Deviation":      -1.0,
		"Spread":         7.0,
		"Hysteresis":     2.0,
		"MinInterval":    -1.0,
		"ReplanDeadline": -1.0,
		"RetryBase":      0.0,
		"RetryMax":       1.0, // below the default RetryBase
		"DegradedAfter":  0,
	}
	unbounded := map[string]string{
		"NoWarmStart": "a bool: both values are legal",
	}
	valid := Opts{}.WithDefaults().Policy
	if err := valid.Validate(); err != nil {
		t.Fatalf("the default policy is invalid: %v", err)
	}
	typ := reflect.TypeOf(valid)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		bad, bounded := refused[name]
		_, noted := unbounded[name]
		switch {
		case bounded == noted:
			t.Errorf("Policy.%s needs exactly one of: a value Validate refuses, or an unbounded note", name)
		case bounded:
			p := valid
			reflect.ValueOf(&p).Elem().Field(i).Set(reflect.ValueOf(bad))
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepts %s = %v", name, bad)
			}
		}
	}
}

// TestOptsValidate covers the two lifetime values Validate guards on
// top of the policy, and New's refusal to build a manager that would
// spin the event loop.
func TestOptsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Opts
		want string
	}{
		{"negative check", Opts{CheckEvery: -1}, "check interval must be > 0"},
		{"negative latency", Opts{ReplanLatency: -5}, "replan latency must be >= 0"},
		{"policy", Opts{Policy: Policy{Spread: 7}}, "spread must be in (0, 1]"},
		{"retry max below base", Opts{Policy: Policy{RetryBase: 100, RetryMax: 10}}, "retry max 10 below retry base 100"},
	} {
		err := tc.opts.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
	}
	if err := (Opts{}).WithDefaults().Validate(); err != nil {
		t.Errorf("zero Opts invalid after defaults: %v", err)
	}
	// A derived RetryMax never trips the bound: MinInterval/2 below
	// RetryBase is raised to it.
	if o := (Opts{Policy: Policy{MinInterval: 60}}).WithDefaults(); o.RetryMax != o.RetryBase {
		t.Errorf("derived RetryMax = %g, want RetryBase %g", o.RetryMax, o.RetryBase)
	}

	r := newRig(t, 1, 1, 0.3)
	defer func() {
		if v := recover(); v == nil || !strings.Contains(v.(error).Error(), "check interval") {
			t.Errorf("New with CheckEvery -1: recovered %v, want the Validate error", v)
		}
	}()
	New(r.s, r.c, r.plan, r.sameReplan(), Opts{CheckEvery: -1})
}
