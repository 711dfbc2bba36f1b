package ledger

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// appendRef is the reference Append is held to: the interval as separate
// passes. It clears every app's lastUJ, attributes each trusted socket by
// the remainder walk, folds the interval into each tier in a pass of its
// own, runs the detectors in one piece, and fills the energy batch last.
func appendRef(l *Ledger, in Input) {
	l.mu.Lock()
	l.intervals++
	l.elapsed = in.At

	var intervalTotal, intervalUnattrib, intervalExcluded uint64
	for i := range l.apps {
		l.apps[i].lastUJ = 0
	}
	for s := range l.sockApps {
		var w units.Watts
		if s < len(in.SocketPower) {
			w = in.SocketPower[s]
		}
		uj := microjoules(w, in.Dt)
		intervalTotal += uj
		trusted := s < len(in.SocketStatus) && in.SocketStatus[s].Trustworthy()
		if trusted {
			for _, ai := range l.sockApps[s] {
				c := l.apps[ai].spec.Core
				if c >= len(in.Cores) || !in.Cores[c].Status.Trustworthy() {
					trusted = false
					break
				}
			}
		}
		if !trusted {
			intervalExcluded += uj
			continue
		}
		attributed := attributeSocketWalk(l, s, uj, in.Cores)
		intervalUnattrib += uj - attributed
	}

	limitUJ := microjoules(in.Limit, in.Dt)
	var overUJ uint64
	if in.PackagePower > in.Limit {
		overUJ = microjoules(in.PackagePower-in.Limit, in.Dt)
		l.overIntvls++
	}
	l.acct.total += intervalTotal
	l.acct.unattrib += intervalUnattrib
	l.acct.excluded += intervalExcluded
	l.acct.limit += limitUJ
	l.acct.overshoot += overUJ

	rate := l.rates.At(in.At)
	kwh := float64(intervalTotal) / microjoulesPerKWh
	l.costUSD += kwh * rate.USDPerKWh
	l.carbonG += kwh * rate.GCO2PerKWh

	for _, t := range []*tier{&l.store.raw, &l.store.secs, &l.store.mins} {
		accumulateRef(t, in.At, in.Dt, l.apps, intervalTotal, intervalUnattrib, intervalExcluded, limitUJ, overUJ)
	}
	runDetectorsRef(l, in)
	if l.flight != nil {
		ev := l.events
		for i := range l.apps {
			ev[i].Value, ev[i].Aux = l.apps[i].lastUJ, l.apps[i].totalUJ
		}
		pkg := ev[len(l.apps):]
		pkg[0].Aux, pkg[1].Aux, pkg[2].Aux, pkg[3].Aux, pkg[4].Aux =
			l.acct.unattrib, l.acct.excluded, l.acct.total, l.acct.limit, l.acct.overshoot
		l.flight.RecordBatch(flight.SourceLedger, ev)
	}
	l.mu.Unlock()
}

// accumulateRef folds one interval into one tier, the raw bin zeroed and
// then copied from the apps' lastUJ.
func accumulateRef(t *tier, at, dur time.Duration, apps []appAccount, total, unattrib, excluded, limitUJ, overshoot uint64) {
	st := at - dur
	if st < 0 {
		st = 0
	}
	reset := func(b *bin) {
		b.start, b.dur, b.intervals, b.pkg = 0, 0, 0, accounts{}
		for i := range b.appUJ {
			b.appUJ[i] = 0
		}
	}
	if t.width == 0 {
		b := &t.bins[t.next]
		reset(b)
		b.start, b.dur, b.intervals = st, dur, 1
		b.pkg = accounts{total, unattrib, excluded, limitUJ, overshoot}
		for i := range apps {
			b.appUJ[i] = apps[i].lastUJ
		}
		t.advance()
		return
	}
	aligned := st - st%t.width
	if t.open && aligned > t.bins[t.next].start {
		t.advance()
	}
	b := &t.bins[t.next]
	if !t.open {
		reset(b)
		b.start = aligned
		b.dur = t.width
		t.open = true
	}
	b.intervals++
	b.pkg.total += total
	b.pkg.unattrib += unattrib
	b.pkg.excluded += excluded
	b.pkg.limit += limitUJ
	b.pkg.overshoot += overshoot
	for i := range apps {
		b.appUJ[i] += apps[i].lastUJ
	}
}

// runDetectorsRef advances every detector by one interval in one piece,
// the drift detector summing the apps' lastUJ itself and working out each
// app's share fraction from its spec.
func runDetectorsRef(l *Ledger, in Input) {
	d := &l.det
	if in.Limit > 0 && in.PackagePower > in.Limit+units.Watts(float64(in.Limit)*d.cfg.overshootMargin) {
		d.overRun++
		if d.overRun >= d.cfg.overshootN && !d.overFired {
			d.overFired = true
			l.fire(flight.AnomalyOvershoot, -1,
				uint64(float64(in.PackagePower-in.Limit)*1e6), uint64(d.overRun))
		}
	} else {
		d.overRun = 0
		d.overFired = false
	}

	uw := uint64(float64(in.Limit) * 1e6)
	dir := 0
	if d.lastLimitUW != 0 {
		if uw > d.lastLimitUW {
			dir = 1
		} else if uw < d.lastLimitUW {
			dir = -1
		}
	}
	flip := dir != 0 && d.lastDir != 0 && dir != d.lastDir
	if dir != 0 {
		d.lastDir = dir
	}
	d.lastLimitUW = uw
	if d.flipRing[d.flipNext] {
		d.flipCount--
	}
	d.flipRing[d.flipNext] = flip
	if flip {
		d.flipCount++
	}
	d.flipNext++
	if d.flipNext == len(d.flipRing) {
		d.flipNext = 0
	}
	if d.flipCount >= d.cfg.oscillationFlips {
		if !d.oscFired {
			d.oscFired = true
			l.fire(flight.AnomalyOscillation, -1, uw, uint64(d.flipCount))
		}
	} else if d.flipCount == 0 {
		d.oscFired = false
	}

	var attr uint64
	for i := range l.apps {
		attr += l.apps[i].lastUJ
	}
	if attr > 0 && l.totalShares > 0 {
		for i := range l.apps {
			a := &l.apps[i]
			frac := float64(a.lastUJ) / float64(attr)
			if !a.ewmaPrimed {
				a.ewmaFrac = frac
				a.ewmaPrimed = true
			} else {
				a.ewmaFrac += d.cfg.driftAlpha * (frac - a.ewmaFrac)
			}
			sh := float64(a.spec.Shares)
			if sh <= 0 {
				sh = 1
			}
			shareFrac := sh / float64(l.totalShares)
			dev := a.ewmaFrac - shareFrac
			if dev < 0 {
				dev = -dev
			}
			if dev > d.cfg.driftMargin {
				a.driftRun++
				if a.driftRun >= d.cfg.driftN && !a.driftFired {
					a.driftFired = true
					l.fire(flight.AnomalyShareDrift, a.spec.Core,
						uint64(a.ewmaFrac*1e6), uint64(shareFrac*1e6))
				}
			} else {
				a.driftRun = 0
				a.driftFired = false
			}
		}
	}

	for s := range d.sockRun {
		trusted := s < len(in.SocketStatus) && in.SocketStatus[s].Trustworthy()
		if !trusted {
			d.sockRun[s]++
			if d.sockRun[s] >= d.cfg.stragglerN && !d.sockFired[s] {
				d.sockFired[s] = true
				l.fire(flight.AnomalyStraggler, s, 0, uint64(d.sockRun[s]))
			}
		} else {
			d.sockRun[s] = 0
			d.sockFired[s] = false
		}
	}
}

// Append bills every interval exactly as the reference does: the same
// accounts, the same tiers at every resolution, the same anomalies, and the
// same flight log event for event. The seeded intervals take in untrusted
// and idle sockets, the laps, overshoots and remainder ties of
// TestSelectionMatchesRemainderWalk's draws, phases that fire every
// detector, and a reconfiguration midway, on sockets of 1, 2 and 64 apps.
func TestAppendMatchesReference(t *testing.T) {
	for _, perSocket := range []int{1, 2, 64} {
		t.Run(fmt.Sprintf("apps=%d", perSocket), func(t *testing.T) {
			chip := platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), perSocket), 2)
			rng := rand.New(rand.NewSource(int64(perSocket)))
			apps := make([]core.AppSpec, chip.NumCores)
			for i := range apps {
				apps[i] = core.AppSpec{Name: fmt.Sprintf("a%d", i%3), Core: i, Shares: units.Shares(rng.Intn(100))}
			}
			// Midway the set loses every third app and the rest swap order
			// and shares, so the per-app constants are laid down again.
			var next []core.AppSpec
			for i := len(apps) - 1; i >= 0; i-- {
				if len(apps) == 2 || i%3 != 1 {
					next = append(next, core.AppSpec{Name: apps[i].Name, Core: apps[i].Core, Shares: units.Shares(rng.Intn(100))})
				}
			}

			var at time.Duration
			mk := func() (*Ledger, *flight.Recorder) {
				rec := flight.New(512) // past one interval's batch; every round is compared
				rec.SetClock(func() time.Duration { return at })
				return newTestLedger(t, chip, apps, Config{Flight: rec, Metrics: metrics.NewRegistry()}), rec
			}
			got, gotRec := mk()
			ref, refRec := mk()

			const dt = 250 * time.Millisecond
			perUJ := dt.Seconds() * 1e6 // µJ per watt over one interval
			in := Input{
				Dt:           dt,
				SocketPower:  make([]units.Watts, chip.Sockets()),
				SocketStatus: make([]telemetry.CoreStatus, chip.Sockets()),
				Cores:        make([]telemetry.CoreSample, chip.NumCores),
			}
			var laps, overshoots, ties, excluded, idle int
			for round := 0; round < 600; round++ {
				at += dt
				in.At = at
				sleepy := rng.Float64()
				if round%50 == 0 {
					sleepy = 2 // every core asleep
				}
				for c := range in.Cores {
					in.Cores[c] = telemetry.CoreSample{CPU: c, Status: telemetry.StatusOK}
					if rng.Float64() >= sleepy*0.3 {
						in.Cores[c].ActiveFreq = units.Hertz(8e8 + 1e8*float64(rng.Intn(30)))
					}
					if rng.Intn(40*chip.NumCores) == 0 {
						in.Cores[c].Status = telemetry.StatusStale
					}
				}
				in.PackagePower = 0
				for s := range in.SocketPower {
					var uj float64
					switch rng.Intn(6) {
					case 0:
						uj = float64(rng.Intn(2 * perSocket))
					case 1:
						uj = float64(1<<53 + uint64(rng.Int63n(1<<60)))
					case 2:
						uj = float64(1<<53 + uint64(rng.Int63n(1<<62))) // more laps on the widest socket
					default:
						uj = float64(rng.Int63n(100_000_000))
					}
					if 400 <= round && round < 430 {
						uj = 300 * perUJ // sustained overshoot
					}
					if s == 0 && 450 <= round && round < 580 {
						uj = 0 // socket 0's apps take none of the energy: drift
					}
					in.SocketPower[s] = units.Watts(uj / perUJ)
					in.PackagePower += in.SocketPower[s]
					in.SocketStatus[s] = telemetry.StatusOK
					if rng.Intn(30) == 0 || (s == 1 && 100 <= round && round < 170) {
						in.SocketStatus[s] = telemetry.StatusDark // a straggler from round 150
					}
				}
				in.Limit = 150
				if 200 <= round && round < 260 && round%2 == 0 {
					in.Limit = 120 // thrashing cap
				}

				for s := range in.SocketPower {
					trusted := in.SocketStatus[s].Trustworthy()
					for _, ai := range got.sockApps[s] {
						trusted = trusted && in.Cores[got.core[ai]].Status.Trustworthy()
					}
					uj := microjoules(in.SocketPower[s], dt)
					sum, live := floorSum(got, s, uj, in.Cores)
					switch {
					case !trusted:
						excluded++
					case !live || uj == 0:
						idle++
					case sum > uj:
						overshoots++
					case uj-sum >= uint64(len(got.sockApps[s])):
						laps++
					case uj-sum > 1:
						ties++ // more than one leftover, fewer than a lap: a bin is ranked
					}
				}

				if round == 300 {
					checkSame(t, "before reconfigure", got, ref)
					got.Reconfigure(next)
					ref.Reconfigure(next)
				}
				gotRec.BeginInterval(uint32(round))
				refRec.BeginInterval(uint32(round))
				got.Append(in)
				appendRef(ref, in)
				if g, r := gotRec.Snapshot(), refRec.Snapshot(); !sameEvents(g, r) {
					t.Fatalf("round %d: flight logs differ:\ngot %+v\nref %+v", round, g[len(g)-1], r[len(r)-1])
				}
			}
			checkSame(t, "at the end", got, ref)
			if perSocket > 1 && (laps == 0 || overshoots == 0) || perSocket > 2 && ties == 0 {
				t.Errorf("draws missed a fix-up branch: %d laps, %d overshoots, %d multi-leftover", laps, overshoots, ties)
			}
			if excluded == 0 || idle == 0 {
				t.Errorf("draws missed a socket kind: %d excluded, %d idle", excluded, idle)
			}
			s := got.Summarize()
			for _, kind := range []uint32{flight.AnomalyOvershoot, flight.AnomalyOscillation, flight.AnomalyShareDrift, flight.AnomalyStraggler} {
				if name := flight.AnomalyName(kind); s.Anomalies[name] == 0 && (kind != flight.AnomalyShareDrift || perSocket < 64) {
					t.Errorf("no %s anomaly fired: %v", name, s.Anomalies)
				}
			}
		})
	}
}

// checkSame holds two ledgers' accounts and every tier to each other.
func checkSame(t *testing.T, when string, got, ref *Ledger) {
	t.Helper()
	if g, r := got.Summarize(), ref.Summarize(); !reflect.DeepEqual(g, r) {
		t.Fatalf("%s: summaries differ:\ngot %+v\nref %+v", when, g, r)
	}
	for _, res := range []string{ResRaw, ResSecond, ResMinute} {
		g, gerr := got.Range(Query{Res: res})
		r, rerr := ref.Range(Query{Res: res})
		if gerr != nil || rerr != nil || !reflect.DeepEqual(g, r) {
			t.Fatalf("%s: %s range differs (%v, %v):\ngot %+v\nref %+v", when, res, gerr, rerr, g.Points, r.Points)
		}
		if len(g.Points) == 0 {
			t.Fatalf("%s: %s range is empty", when, res)
		}
	}
}

// sameEvents compares two flight logs in every field but Wall.
func sameEvents(a, b []flight.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Wall, y.Wall = 0, 0
		if x != y {
			return false
		}
	}
	return true
}
