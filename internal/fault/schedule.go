// Package fault is the deterministic fault-injection subsystem: a
// seed-driven injector that perturbs the MSR device (transient EIO reads,
// stale/stuck registers, torn multi-register samples, latency spikes) and
// the platform model (thermal excursions forcing sudden frequency caps,
// RAPL limit drops, core offlining mid-run) according to a declarative
// schedule, logging every injected window to the flight recorder and
// metrics.
//
// The schedule format is line-oriented; each line opens one fault window:
//
//	# comments and blank lines are ignored
//	at 10s for 5s  eio     cpu=2 regs=APERF,MPERF prob=0.5
//	at 20s for 3s  stuck   cpu=* regs=PKG_ENERGY_STATUS
//	at 30s for 2s  torn    cpu=1
//	at 5s  for 1s  latency cpu=* delay=10ms
//	at 40s for 10s thermal cap=1200MHz
//	at 50s for 5s  rapl    limit=30W
//	at 60s for 10s offline cpu=3
//
// Device-level classes (eio, stuck, torn, latency) act on the wrapped MSR
// device and so perturb only what the control plane observes; platform
// classes (thermal, rapl, offline) act on the simulated machine and perturb
// what actually happens. Both kinds are recorded to the flight recorder so
// a faulted run replays deterministically.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/msr"
	"repro/internal/units"
)

// Class is a fault class.
type Class uint8

// The fault classes. Device-level classes perturb MSR access; platform
// classes perturb the machine itself.
const (
	// ClassEIO fails matching reads with a transient I/O error
	// (probability Prob per read), like a flaky /dev/cpu/N/msr.
	ClassEIO Class = iota
	// ClassStuck freezes matching registers at the value they held when
	// the window opened: reads keep succeeding but stop advancing — the
	// archetypal lying MSR.
	ClassStuck
	// ClassTorn freezes a seed-chosen half of the matching registers and
	// leaves the rest live, producing internally inconsistent
	// multi-register samples (APERF advancing while MPERF is stale).
	ClassTorn
	// ClassLatency adds Delay to every matching read, modelling SMI storms
	// and bus contention that stall MSR access.
	ClassLatency
	// ClassThermal clamps the package to Cap, the abrupt frequency
	// collapse a thermal excursion forces.
	ClassThermal
	// ClassRAPL drops the hardware power limit to Limit for the window
	// (firmware or a BMC rewriting PKG_POWER_LIMIT underneath the OS).
	ClassRAPL
	// ClassOffline takes CPU out of service: it stops executing and all
	// its MSR reads and writes fail — a dead core.
	ClassOffline
	numClasses
)

var classNames = map[Class]string{
	ClassEIO:     "eio",
	ClassStuck:   "stuck",
	ClassTorn:    "torn",
	ClassLatency: "latency",
	ClassThermal: "thermal",
	ClassRAPL:    "rapl",
	ClassOffline: "offline",
}

// String names the class as it appears in schedules.
func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return "unknown"
}

// FlightCode maps the class onto its stable dump code.
func (c Class) FlightCode() uint32 {
	switch c {
	case ClassEIO:
		return flight.FaultEIO
	case ClassStuck:
		return flight.FaultStuck
	case ClassTorn:
		return flight.FaultTorn
	case ClassLatency:
		return flight.FaultLatency
	case ClassThermal:
		return flight.FaultThermal
	case ClassRAPL:
		return flight.FaultRAPL
	case ClassOffline:
		return flight.FaultOffline
	}
	return ^uint32(0)
}

// ClassByName resolves a schedule keyword to its class.
func ClassByName(name string) (Class, error) {
	for c, n := range classNames {
		if n == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown fault class %q", name)
}

// Entry is one fault window.
type Entry struct {
	At    time.Duration // window open, in run time
	For   time.Duration // window length
	Class Class

	CPU   int           // target CPU; -1 matches every CPU
	Regs  []uint32      // canonical registers; empty matches every register
	Prob  float64       // eio: failure probability per read, (0, 1]
	Delay time.Duration // latency: added per read
	Cap   units.Hertz   // thermal: forced frequency clamp
	Limit units.Watts   // rapl: dropped power limit
}

// Active reports whether the window covers run time t.
func (e Entry) Active(t time.Duration) bool {
	return t >= e.At && t < e.At+e.For
}

// Matches reports whether the entry targets the given CPU and canonical
// register.
func (e Entry) Matches(cpu int, reg uint32) bool {
	if e.CPU >= 0 && e.CPU != cpu {
		return false
	}
	if len(e.Regs) == 0 {
		return true
	}
	for _, r := range e.Regs {
		if r == reg {
			return true
		}
	}
	return false
}

// Validate reports whether the entry is coherent.
func (e Entry) Validate() error {
	if e.Class >= numClasses {
		return fmt.Errorf("fault: unknown class %d", e.Class)
	}
	if e.At < 0 {
		return fmt.Errorf("fault: %s window starts before t=0", e.Class)
	}
	if e.For <= 0 {
		return fmt.Errorf("fault: %s window has non-positive duration %v", e.Class, e.For)
	}
	if e.For > math.MaxInt64-e.At {
		return fmt.Errorf("fault: %s window at %v for %v closes past the end of time", e.Class, e.At, e.For)
	}
	if e.Prob < 0 || e.Prob > 1 {
		return fmt.Errorf("fault: %s probability %v outside [0, 1]", e.Class, e.Prob)
	}
	switch e.Class {
	case ClassLatency:
		if e.Delay <= 0 {
			return fmt.Errorf("fault: latency window needs delay > 0")
		}
	case ClassThermal:
		if e.Cap <= 0 {
			return fmt.Errorf("fault: thermal window needs cap > 0")
		}
	case ClassRAPL:
		if e.Limit <= 0 {
			return fmt.Errorf("fault: rapl window needs limit > 0")
		}
	case ClassOffline:
		if e.CPU < 0 {
			return fmt.Errorf("fault: offline window needs a specific cpu")
		}
	}
	return nil
}

// String renders the entry in schedule syntax; ParseSchedule(e.String())
// round-trips.
func (e Entry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "at %v for %v %s", e.At, e.For, e.Class)
	if e.CPU >= 0 {
		fmt.Fprintf(&b, " cpu=%d", e.CPU)
	} else if e.Class != ClassThermal && e.Class != ClassRAPL {
		b.WriteString(" cpu=*")
	}
	if len(e.Regs) > 0 {
		names := make([]string, len(e.Regs))
		for i, r := range e.Regs {
			names[i] = msr.RegName(r)
		}
		fmt.Fprintf(&b, " regs=%s", strings.Join(names, ","))
	}
	if e.Prob > 0 && e.Prob < 1 {
		fmt.Fprintf(&b, " prob=%g", e.Prob)
	}
	if e.Delay > 0 {
		fmt.Fprintf(&b, " delay=%v", e.Delay)
	}
	if e.Cap > 0 {
		// %g hertz round-trips exactly; unit suffixes would round.
		fmt.Fprintf(&b, " cap=%gHz", float64(e.Cap))
	}
	if e.Limit > 0 {
		fmt.Fprintf(&b, " limit=%gW", float64(e.Limit))
	}
	return b.String()
}

// Schedule is an ordered set of fault windows.
type Schedule []Entry

// String renders the schedule in parseable form.
func (s Schedule) String() string {
	lines := make([]string, len(s))
	for i, e := range s {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// End reports when the last window closes (0 for an empty schedule).
func (s Schedule) End() time.Duration {
	var end time.Duration
	for _, e := range s {
		if t := e.At + e.For; t > end {
			end = t
		}
	}
	return end
}

// regNames maps schedule register names onto canonical addresses. Hex
// literals (0x611) are also accepted.
var regNames = map[string]uint32{
	"APERF":             msr.IA32Aperf,
	"MPERF":             msr.IA32Mperf,
	"FIXED_CTR0":        msr.IA32FixedCtr0,
	"PERF_STATUS":       msr.IA32PerfStatus,
	"PERF_CTL":          msr.IA32PerfCtl,
	"RAPL_POWER_UNIT":   msr.RAPLPowerUnit,
	"PKG_POWER_LIMIT":   msr.PkgPowerLimit,
	"PKG_ENERGY_STATUS": msr.PkgEnergyStatus,
	"PP0_ENERGY_STATUS": msr.PP0EnergyStatus,
	"PM_ENABLE":         msr.IA32PmEnable,
	"HWP_REQUEST":       msr.IA32HwpRequest,
}

func parseReg(s string) (uint32, error) {
	if r, ok := regNames[strings.ToUpper(s)]; ok {
		return r, nil
	}
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err := strconv.ParseUint(s[2:], 16, 32)
		if err != nil {
			return 0, fmt.Errorf("fault: bad register %q: %w", s, err)
		}
		return msr.Canonical(uint32(v)), nil
	}
	return 0, fmt.Errorf("fault: unknown register %q", s)
}

// parseHertz parses a frequency with an optional GHz/MHz/kHz/Hz suffix
// (plain numbers are hertz).
func parseHertz(s string) (units.Hertz, error) {
	mult := 1.0
	up := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(up, "GHZ"):
		mult, s = 1e9, s[:len(s)-3]
	case strings.HasSuffix(up, "MHZ"):
		mult, s = 1e6, s[:len(s)-3]
	case strings.HasSuffix(up, "KHZ"):
		mult, s = 1e3, s[:len(s)-3]
	case strings.HasSuffix(up, "HZ"):
		s = s[:len(s)-2]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("fault: bad frequency: %w", err)
	}
	return units.Hertz(v * mult), nil
}

// parseWatts parses a power with an optional W suffix.
func parseWatts(s string) (units.Watts, error) {
	if strings.HasSuffix(strings.ToUpper(s), "W") {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("fault: bad power: %w", err)
	}
	return units.Watts(v), nil
}

// ParseSchedule parses the line-oriented schedule format. Entries are
// returned sorted by window open time (stable for equal times). Inline
// schedules may separate entries with ';' instead of newlines.
func ParseSchedule(text string) (Schedule, error) {
	var sched Schedule
	text = strings.ReplaceAll(text, ";", "\n")
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseEntry(line)
		if err != nil {
			return nil, fmt.Errorf("fault: line %d: %w", ln+1, err)
		}
		sched = append(sched, e)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

func parseEntry(line string) (Entry, error) {
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "at" || f[2] != "for" {
		return Entry{}, fmt.Errorf("want %q, got %q", "at <time> for <duration> <class> [k=v...]", line)
	}
	at, err := time.ParseDuration(f[1])
	if err != nil {
		return Entry{}, fmt.Errorf("bad window start: %w", err)
	}
	dur, err := time.ParseDuration(f[3])
	if err != nil {
		return Entry{}, fmt.Errorf("bad window duration: %w", err)
	}
	class, err := ClassByName(f[4])
	if err != nil {
		return Entry{}, err
	}
	e := Entry{At: at, For: dur, Class: class, CPU: -1}
	for _, kv := range f[5:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Entry{}, fmt.Errorf("bad parameter %q (want key=value)", kv)
		}
		switch key {
		case "cpu":
			if val == "*" {
				e.CPU = -1
				break
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Entry{}, fmt.Errorf("bad cpu %q", val)
			}
			e.CPU = n
		case "regs":
			for _, name := range strings.Split(val, ",") {
				r, err := parseReg(name)
				if err != nil {
					return Entry{}, err
				}
				e.Regs = append(e.Regs, r)
			}
		case "prob":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Entry{}, fmt.Errorf("bad prob %q", val)
			}
			e.Prob = p
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Entry{}, fmt.Errorf("bad delay %q", val)
			}
			e.Delay = d
		case "cap":
			if e.Cap, err = parseHertz(val); err != nil {
				return Entry{}, err
			}
		case "limit":
			if e.Limit, err = parseWatts(val); err != nil {
				return Entry{}, err
			}
		default:
			return Entry{}, fmt.Errorf("unknown parameter %q", key)
		}
	}
	if err := e.Validate(); err != nil {
		return Entry{}, err
	}
	return e, nil
}
