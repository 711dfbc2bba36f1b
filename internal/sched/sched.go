// Package sched models single-core time sharing with CPU-share control
// (the paper's Section 4.3 and Figure 6): several applications multiplexed
// on one core, each granted a fraction of core time the way docker
// --cpu-quota / cgroups cpu shares grant it. The paper's observation — the
// core's average power is the time-weighted sum of the individual
// applications' solo power draws — emerges from the simulation rather than
// being assumed.
package sched

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// Task is one time-shared application with its core-time allocation.
type Task struct {
	In       *workload.Instance
	Fraction float64 // quota mode: share of core time in (0, 1]
	Shares   float64 // share mode: relative weight

	compensate bool
	cpuTime    time.Duration
	budget     time.Duration // remaining budget within the current period
}

// mode selects how a core's tasks are allotted time.
type mode int

const (
	modeUnset  mode = iota
	modeQuota       // absolute core-time fractions (docker --cpu-quota)
	modeShares      // relative weights, work-conserving (cgroups cpu.shares)
)

// Core is one processor core multiplexing tasks.
type Core struct {
	chip   platform.Chip
	freq   units.Hertz
	ref    units.Hertz   // frequency the compensation baseline was set at
	period time.Duration // budget replenishment period
	slice  time.Duration // scheduling quantum
	mode   mode

	tasks    []*Task
	clock    time.Duration
	inPeriod time.Duration
	energy   units.Joules
	idleTime time.Duration
}

// New builds a time-shared core on the chip at a fixed operating frequency.
func New(chip platform.Chip, freq units.Hertz) (*Core, error) {
	if err := chip.Validate(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	q := chip.Freq.Quantize(freq)
	if q != freq {
		return nil, fmt.Errorf("sched: frequency %v is not a valid P-state (nearest %v)", freq, q)
	}
	return &Core{
		chip:   chip,
		freq:   freq,
		ref:    freq,
		period: 100 * time.Millisecond,
		slice:  time.Millisecond,
	}, nil
}

// SetFrequency changes the core's operating frequency mid-run, modelling a
// power limiter throttling the core under the scheduler.
func (c *Core) SetFrequency(f units.Hertz) error {
	q := c.chip.Freq.Quantize(f)
	if q != f {
		return fmt.Errorf("sched: frequency %v is not a valid P-state (nearest %v)", f, q)
	}
	c.freq = f
	return nil
}

// Add registers a task with an absolute core-time fraction (quota mode,
// docker --cpu-quota semantics; leftover time idles the core). The
// fractions of all tasks may not exceed 1. Quota and share tasks may not
// mix on one core.
func (c *Core) Add(in *workload.Instance, fraction float64) error {
	if c.mode == modeShares {
		return fmt.Errorf("sched: cannot mix quota tasks with share tasks")
	}
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("sched: fraction %g outside (0,1]", fraction)
	}
	if err := in.Profile.Validate(); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	var sum float64
	for _, t := range c.tasks {
		sum += t.Fraction
	}
	if sum+fraction > 1+1e-9 {
		return fmt.Errorf("sched: fractions exceed 1 (%.2f + %.2f)", sum, fraction)
	}
	c.mode = modeQuota
	c.tasks = append(c.tasks, &Task{In: in, Fraction: fraction})
	return nil
}

// AddShares registers a task with a relative weight (share mode, cgroups
// cpu.shares semantics): the core is work-conserving and each task receives
// shares/Σshares of its time each period. Quota and share tasks may not mix
// on one core.
func (c *Core) AddShares(in *workload.Instance, shares float64) error {
	if c.mode == modeQuota {
		return fmt.Errorf("sched: cannot mix share tasks with quota tasks")
	}
	if shares <= 0 {
		return fmt.Errorf("sched: shares must be positive, got %g", shares)
	}
	if err := in.Profile.Validate(); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	c.mode = modeShares
	c.tasks = append(c.tasks, &Task{In: in, Shares: shares})
	return nil
}

// Compensate marks a share-mode task for throttle compensation — the
// paper's Section 4.3 case 2: "CPU scheduling can be modified to give
// low-demand applications more runtime, by dynamically adjusting their CPU
// shares at runtime to compensate for CPU throttling". Each period the
// task's effective weight is scaled by refFreq/currentFreq (where refFreq
// is the frequency at core construction), so its retired work tracks the
// unthrottled rate at the expense of uncompensated tasks.
func (c *Core) Compensate(task int) error {
	if c.mode != modeShares {
		return fmt.Errorf("sched: compensation requires share mode")
	}
	if task < 0 || task >= len(c.tasks) {
		return fmt.Errorf("sched: task %d out of range", task)
	}
	c.tasks[task].compensate = true
	return nil
}

// Run advances the core for a duration of virtual time, multiplexing tasks
// quantum by quantum. Within each period, each task receives
// fraction*period of core time; the quantum always goes to the runnable
// task with the most remaining budget, which interleaves tasks roughly
// proportionally; leftover time idles the core (fractions are quotas, not
// relative weights, matching docker --cpu-quota semantics).
func (c *Core) Run(d time.Duration) {
	end := c.clock + d
	for c.clock < end {
		if c.inPeriod == 0 {
			c.refillBudgets()
		}
		q := c.slice
		if rem := c.period - c.inPeriod; rem < q {
			q = rem
		}
		if rem := end - c.clock; rem < q {
			q = rem
		}
		var pick *Task
		for _, t := range c.tasks {
			if t.budget <= 0 {
				continue
			}
			if pick == nil || t.budget > pick.budget {
				pick = t
			}
		}
		if pick != nil {
			if pick.budget < q {
				q = pick.budget
			}
			pick.In.Advance(c.freq, q)
			pick.budget -= q
			pick.cpuTime += q
			p := c.chip.Power.CorePower(c.freq, pick.In.CurrentActivity())
			c.energy += p.Energy(q)
		} else {
			c.idleTime += q
			c.energy += c.chip.Power.IdleCorePower.Energy(q)
		}
		c.clock += q
		c.inPeriod += q
		if c.inPeriod >= c.period {
			c.inPeriod = 0
		}
	}
}

// refillBudgets computes each task's time budget for the next period.
func (c *Core) refillBudgets() {
	if c.mode == modeShares {
		var ssum float64
		for _, t := range c.tasks {
			ssum += t.Shares
		}
		// Compensated tasks get their base fraction scaled by the
		// throttling ratio (so their retired work tracks the unthrottled
		// rate); uncompensated tasks share whatever remains in base-share
		// proportion.
		scale := 1.0
		if c.freq > 0 && c.freq < c.ref {
			scale = float64(c.ref) / float64(c.freq)
		}
		var compSum, uncompShares float64
		fracs := make([]float64, len(c.tasks))
		for i, t := range c.tasks {
			base := t.Shares / ssum
			if t.compensate {
				fracs[i] = base * scale
				compSum += fracs[i]
			} else {
				uncompShares += t.Shares
			}
		}
		remaining := 1 - compSum
		if remaining < 0 {
			// Compensation demands exceed the core: scale the compensated
			// tasks back to fit and starve the rest.
			for i := range fracs {
				fracs[i] /= compSum
			}
			remaining = 0
		}
		for i, t := range c.tasks {
			if !t.compensate && uncompShares > 0 {
				fracs[i] = remaining * t.Shares / uncompShares
			}
			t.budget = time.Duration(fracs[i] * float64(c.period))
		}
		return
	}
	for _, t := range c.tasks {
		t.budget = time.Duration(t.Fraction * float64(c.period))
	}
}

// AveragePower reports mean core power over the simulated time.
func (c *Core) AveragePower() units.Watts {
	return c.energy.Power(c.clock)
}
