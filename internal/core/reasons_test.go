package core

import (
	"testing"

	"repro/internal/platform"
)

// reasonsOf fetches a policy's last reasons through the Explainer
// interface, failing if the policy does not implement it.
func reasonsOf(t *testing.T, p Policy) []Reason {
	t.Helper()
	ex, ok := p.(Explainer)
	if !ok {
		t.Fatalf("%s does not implement Explainer", p.Name())
	}
	return ex.LastReasons()
}

func hasReason(rs []Reason, want Reason) bool {
	for _, r := range rs {
		if r == want {
			return true
		}
	}
	return false
}

func TestFrequencySharesReasons(t *testing.T) {
	p, err := NewFrequencyShares(platform.Skylake(), skySpecs2(), ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	if rs := reasonsOf(t, p); !hasReason(rs, ReasonInitial) {
		t.Errorf("initial reasons = %v", rs)
	}
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	rs := reasonsOf(t, p)
	if !hasReason(rs, ReasonPowerOverLimit) || !hasReason(rs, ReasonShareRebalance) {
		t.Errorf("over-limit reasons = %v", rs)
	}
	p.Update(Snapshot{Limit: 50, PackagePower: 30})
	if rs := reasonsOf(t, p); !hasReason(rs, ReasonPowerUnderLimit) {
		t.Errorf("under-limit reasons = %v", rs)
	}
	p.Update(Snapshot{Limit: 50, PackagePower: 49.8})
	if rs := reasonsOf(t, p); !hasReason(rs, ReasonWithinDeadband) {
		t.Errorf("deadband reasons = %v", rs)
	}
}

func TestPerformanceSharesReasons(t *testing.T) {
	p, err := NewPerformanceShares(platform.Skylake(), skySpecs2(), ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	if rs := reasonsOf(t, p); !hasReason(rs, ReasonInitial) {
		t.Errorf("initial reasons = %v", rs)
	}
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	rs := reasonsOf(t, p)
	if !hasReason(rs, ReasonPowerOverLimit) || !hasReason(rs, ReasonShareRebalance) {
		t.Errorf("over-limit reasons = %v", rs)
	}
	p.Update(Snapshot{Limit: 50, PackagePower: 49.9})
	rs = reasonsOf(t, p)
	if !hasReason(rs, ReasonWithinDeadband) || !hasReason(rs, ReasonTranslateOnly) {
		t.Errorf("deadband reasons = %v", rs)
	}
}

func TestPowerSharesReasons(t *testing.T) {
	p, err := NewPowerShares(platform.Ryzen(), skySpecs2(), ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.InitialForLimit(50)
	if rs := reasonsOf(t, p); !hasReason(rs, ReasonInitial) {
		t.Errorf("initial reasons = %v", rs)
	}
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	rs := reasonsOf(t, p)
	if !hasReason(rs, ReasonPowerOverLimit) || !hasReason(rs, ReasonShareRebalance) {
		t.Errorf("over-limit reasons = %v", rs)
	}
	// Changing the enforced limit between updates is itself a recorded
	// decision (cluster coordinators do this at their own cadence).
	p.Update(Snapshot{Limit: 40, PackagePower: 39})
	if rs := reasonsOf(t, p); !hasReason(rs, ReasonLimitChange) {
		t.Errorf("limit-change reasons = %v", rs)
	}
}

func TestPriorityReasons(t *testing.T) {
	specs := []AppSpec{
		{Name: "hp", Core: 0, HighPriority: true},
		{Name: "lp", Core: 1},
	}
	p, err := NewPriority(platform.Skylake(), specs, PriorityConfig{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	if rs := reasonsOf(t, p); !hasReason(rs, ReasonInitial) {
		t.Errorf("initial reasons = %v", rs)
	}
	// After Initial the LP class is parked and HP sits at its ceiling, so
	// an over-limit snapshot must throttle HP.
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	rs := reasonsOf(t, p)
	if !hasReason(rs, ReasonPowerOverLimit) || !hasReason(rs, ReasonThrottleHP) {
		t.Errorf("over-limit reasons = %v", rs)
	}
	// Now HP is below its ceiling: headroom restores HP first.
	p.Update(Snapshot{Limit: 50, PackagePower: 20})
	rs = reasonsOf(t, p)
	if !hasReason(rs, ReasonPowerUnderLimit) || !hasReason(rs, ReasonRestoreHP) {
		t.Errorf("under-limit reasons = %v", rs)
	}
	p.Update(Snapshot{Limit: 50, PackagePower: 49.5})
	if rs := reasonsOf(t, p); !hasReason(rs, ReasonWithinDeadband) {
		t.Errorf("deadband reasons = %v", rs)
	}
}

func TestPrioritySharesReasons(t *testing.T) {
	p, err := NewPriorityShares(platform.Skylake(), prioritySharesSpecs(), PriorityConfig{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	if rs := reasonsOf(t, p); !hasReason(rs, ReasonInitial) {
		t.Errorf("initial reasons = %v", rs)
	}
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	rs := reasonsOf(t, p)
	if !hasReason(rs, ReasonPowerOverLimit) {
		t.Errorf("over-limit reasons = %v", rs)
	}
	p.Update(Snapshot{Limit: 50, PackagePower: 49.5})
	if rs := reasonsOf(t, p); !hasReason(rs, ReasonWithinDeadband) {
		t.Errorf("deadband reasons = %v", rs)
	}
}
