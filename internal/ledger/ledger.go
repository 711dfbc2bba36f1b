// Package ledger is the always-on per-application energy accountant: every
// control interval it integrates the per-socket RAPL power readings into
// per-app microjoules, attributed by granted shares and measured per-core
// activity, and appends the result to an in-memory multi-resolution
// time-series store (raw → 1 s → 1 min tiers, constant memory). On top of
// the store it runs streaming anomaly detectors (sustained overshoot, cap
// oscillation, per-app energy-share drift, straggling socket) that emit
// typed flight-recorder events and a padpd_anomalies_total metric family,
// and accumulates cost and carbon from a configurable $/kWh and gCO2/kWh
// rate schedule.
//
// Attribution is exact integer accounting. Each socket's power reading is
// quantised once per interval to microjoules (µJ = round(W · dt · 1e6)) and
// then distributed over the apps pinned to that socket by largest-remainder
// rounding of the weights shares×activeFreq — so the per-app microjoules of
// one socket sum to the socket's microjoules exactly, and the conservation
// identity
//
//	Σ app µJ + unattributed µJ + excluded µJ == total µJ
//
// holds bit-exactly over any horizon. Sockets whose RAPL counter or any
// app core's counters were untrustworthy this interval (stuck, torn, dark)
// contribute to the excluded account instead of being smeared across apps;
// trustworthy energy no app weight claims (idle/static power) lands in the
// unattributed account.
//
// Append is allocation-free: every tier bin, scratch slice and metric child
// is preallocated at construction, so the ledger rides the 1 ms control
// loop without disturbing the zero-alloc gate.
package ledger

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// microjoulesPerKWh converts the integer energy accounts to kilowatt-hours
// for the cost/carbon schedule: 1 kWh = 3.6e6 J = 3.6e12 µJ.
const microjoulesPerKWh = 3.6e12

// Config assembles a ledger.
type Config struct {
	// Chip supplies the socket topology attribution follows: an app's
	// energy comes from the RAPL domain of the socket its core lives on.
	Chip platform.Chip

	// Apps are the managed applications, in daemon spec order — the order
	// KindEnergy events index and dump metadata lists.
	Apps []core.AppSpec

	// Rates is the $/kWh and gCO2/kWh schedule; nil uses DefaultRates.
	Rates RateSchedule

	// Metrics, when set, publishes the energy accounts and the
	// padpd_anomalies_total family on the registry.
	Metrics *metrics.Registry

	// Flight, when set, receives one KindEnergy event per account per
	// interval (delta + cumulative µJ) and one KindAnomaly event per
	// detector firing, so dumps reproduce the ledger's totals exactly.
	Flight *flight.Recorder
}

// appAccount is one app's cumulative energy state.
type appAccount struct {
	spec    core.AppSpec
	totalUJ uint64 // cumulative attributed microjoules
	lastUJ  uint64 // microjoules attributed in the latest interval

	// Share-drift detector state: an EWMA of the app's fraction of the
	// attributed energy, compared against its granted share fraction.
	ewmaFrac   float64
	ewmaPrimed bool
	driftRun   int
	driftFired bool
}

// ledgerMetrics holds the ledger's cached counter handles (nil-safe).
type ledgerMetrics struct {
	anomalies [numAnomalyKinds]*metrics.Counter
}

// Ledger is the per-app energy accountant. A nil *Ledger is a valid
// disabled ledger: every method no-ops or returns zero values.
type Ledger struct {
	mu sync.Mutex

	chip        platform.Chip
	apps        []appAccount
	sockApps    [][]int // app indices per socket
	totalShares int     // Σ max(1, shares), for share-fraction comparisons
	rates       RateSchedule
	flight      *flight.Recorder
	reg         *metrics.Registry
	m           ledgerMetrics

	// byName is the app whose account padpd_app_energy_joules shows for a
	// name: the last so named in spec order. retired holds, for names a
	// reconfiguration took out of the set, the account as it stood then.
	// Both change only with the app set; the gauge reads them at scrape.
	byName  map[string]int
	retired map[string]uint64

	// Cumulative integer accounts (µJ) and counters.
	acct       accounts
	intervals  uint64
	overIntvls uint64
	costUSD    float64
	carbonG    float64
	elapsed    time.Duration // run clock of the latest Append

	store store
	det   detectors

	// Per-app constants of the app set, indexed by app: what attribution
	// and the drift detector read every interval, laid out contiguously.
	share     []float64 // max(1, shares), the attribution weight's factor
	core      []int
	shareFrac []float64 // share / totalShares, the drift detector's target

	// Preallocated attribution scratch, indexed by app.
	weights []float64
	baseUJ  []uint64
	rem     []float64
	bin     []int32        // remainder bin, int(rem × apps on the socket)
	binN    []int          // apps per remainder bin, sized to the largest socket
	order   []int          // remainder selection within one bin
	events  []flight.Event // one interval's KindEnergy batch: every app, then the package accounts
}

// accounts are the package-level microjoule accounts, of one interval or
// one tier bin or cumulative.
type accounts struct {
	total, unattrib, excluded, limit, overshoot uint64
}

func (a *accounts) add(b accounts) {
	a.total += b.total
	a.unattrib += b.unattrib
	a.excluded += b.excluded
	a.limit += b.limit
	a.overshoot += b.overshoot
}

// New builds a ledger. The configuration is validated like daemon
// construction: every app core must exist on the chip.
func New(cfg Config) (*Ledger, error) {
	if err := cfg.Chip.Validate(); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("ledger: no applications")
	}
	for _, a := range cfg.Apps {
		if a.Core < 0 || a.Core >= cfg.Chip.NumCores {
			return nil, fmt.Errorf("ledger: app %s pinned to core %d beyond chip's %d cores",
				a.Name, a.Core, cfg.Chip.NumCores)
		}
	}
	rates := cfg.Rates
	if len(rates) == 0 {
		rates = DefaultRates
	}
	if err := rates.Validate(); err != nil {
		return nil, err
	}
	l := &Ledger{
		chip:   cfg.Chip,
		rates:  rates,
		flight: cfg.Flight,
		reg:    cfg.Metrics,
		det:    newDetectors(ledgerDetectors, cfg.Chip.Sockets()),
	}
	l.store.init(len(cfg.Apps), rawBins, secondBins, minuteBins)
	l.sizeApps(cfg.Apps)
	l.initMetrics()
	return l, nil
}

// sizeApps (re)builds the per-app accounts and attribution scratch for a
// spec set. Caller holds l.mu after construction.
func (l *Ledger) sizeApps(apps []core.AppSpec) {
	n := len(apps)
	l.apps = make([]appAccount, n)
	l.sockApps = make([][]int, l.chip.Sockets())
	l.byName = make(map[string]int, n)
	l.share, l.core, l.shareFrac = make([]float64, n), make([]int, n), make([]float64, n)
	l.totalShares = 0
	for i, a := range apps {
		s := l.chip.SocketOf(a.Core)
		l.apps[i] = appAccount{spec: a}
		l.byName[a.Name] = i
		l.sockApps[s] = append(l.sockApps[s], i)
		l.share[i], l.core[i] = float64(max(a.Shares, 1)), a.Core
		l.totalShares += int(max(a.Shares, 1))
	}
	for i := range l.shareFrac {
		l.shareFrac[i] = l.share[i] / float64(l.totalShares)
	}
	l.weights, l.baseUJ, l.rem = make([]float64, n), make([]uint64, n), make([]float64, n)
	l.bin, l.binN, l.order = make([]int32, n), make([]int, n), make([]int, 0, n)
	// The KindEnergy batch's identities are fixed by the spec set; an
	// interval writes only the accounts' Value and Aux.
	l.events = make([]flight.Event, len(apps), len(apps)+len(pkgAccounts))
	for i, a := range apps {
		l.events[i] = flight.Event{Kind: flight.KindEnergy, Core: int16(a.Core), Arg: uint32(i)}
	}
	for _, arg := range pkgAccounts {
		l.events = append(l.events, flight.Event{Kind: flight.KindEnergy, Core: -1, Arg: arg})
	}
}

// pkgAccounts are the package accounts' Energy* sentinels in the order the
// KindEnergy batch carries them, after every app.
var pkgAccounts = [...]uint32{
	flight.EnergyArgUnattributed, flight.EnergyArgExcluded, flight.EnergyArgTotal,
	flight.EnergyArgLimit, flight.EnergyArgOvershoot,
}

// initMetrics registers the ledger's metric families and caches every
// counter the hot path touches. The energy gauges are views: each reads
// its account under the ledger's lock at scrape time, and the per-app
// family is laid down once per app set, one child per name, so an interval
// writes no gauge. Caller holds no lock (construction and reconfiguration
// only).
func (l *Ledger) initMetrics() {
	if l.reg == nil {
		return
	}
	gauge := func(name, help string, v func() float64) {
		l.reg.GaugeFunc(name, help, func() float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return v()
		})
	}
	gauge("padpd_energy_total_joules", "Total socket energy integrated by the ledger.", func() float64 { return float64(l.acct.total) / 1e6 })
	gauge("padpd_energy_unattributed_joules", "Trustworthy energy no app activity claimed (idle/static power).", func() float64 { return float64(l.acct.unattrib) / 1e6 })
	gauge("padpd_energy_excluded_joules", "Energy excluded from attribution because a counter was untrustworthy.", func() float64 { return float64(l.acct.excluded) / 1e6 })
	gauge("padpd_energy_overshoot_joules", "Integral of package power above the enforced limit.", func() float64 { return float64(l.acct.overshoot) / 1e6 })
	gauge("padpd_energy_cost_usd", "Cumulative energy cost under the configured rate schedule.", func() float64 { return l.costUSD })
	gauge("padpd_energy_carbon_grams", "Cumulative carbon under the configured rate schedule.", func() float64 { return l.carbonG })
	appVec := l.reg.GaugeVec("padpd_app_energy_joules", "Cumulative energy attributed to one application.", "app")
	for i := range l.apps {
		name := l.apps[i].spec.Name
		appVec.WithFunc(func() float64 { return l.appJoules(name) }, name)
	}
	vec := l.reg.CounterVec("padpd_anomalies_total", "Energy-ledger anomaly detector firings, by kind.", "kind")
	for k := uint32(0); k < numAnomalyKinds; k++ {
		l.m.anomalies[k] = vec.With(flight.AnomalyName(k))
	}
}

// Input is one control interval's telemetry handed to Append. The slices
// follow the telemetry sampler's double-buffer contract: they need only
// stay valid for the duration of the call.
type Input struct {
	At           time.Duration // run clock at the end of the interval
	Dt           time.Duration // interval length
	Limit        units.Watts   // enforced package limit this interval
	PackagePower units.Watts
	PkgStatus    telemetry.CoreStatus
	SocketPower  []units.Watts
	SocketStatus []telemetry.CoreStatus
	Cores        []telemetry.CoreSample
}

// microjoules quantises one interval's energy at watts w over dt. This is
// the ledger's only rounding step: everything downstream is exact integer
// arithmetic.
func microjoules(w units.Watts, dt time.Duration) uint64 {
	if w <= 0 || dt <= 0 {
		return 0
	}
	return uint64(float64(w)*dt.Seconds()*1e6 + 0.5)
}

// Append folds one control interval into the ledger: attribution, then one
// pass over the apps for the tiers, share drift and flight batch. It is
// allocation-free and safe for concurrent use with the query methods (single
// writer, own mutex — the daemon calls it once per interval outside its loop lock).
func (l *Ledger) Append(in Input) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.intervals++
	l.elapsed = in.At

	var iv accounts // this interval's package accounts
	var attr uint64 // Σ app µJ this interval, for the drift detector
	for s := range l.sockApps {
		var w units.Watts
		if s < len(in.SocketPower) {
			w = in.SocketPower[s]
		}
		uj := microjoules(w, in.Dt)
		iv.total += uj

		// Trust gate: the socket's RAPL counter and every app core on the
		// socket must be trustworthy, or the whole socket's energy is
		// excluded — a stuck or torn counter must not smear fabricated
		// attributions across the apps that share its domain.
		trusted := s < len(in.SocketStatus) && in.SocketStatus[s].Trustworthy()
		if trusted {
			for _, ai := range l.sockApps[s] {
				c := l.core[ai]
				if c >= len(in.Cores) || !in.Cores[c].Status.Trustworthy() {
					trusted = false
					break
				}
			}
		}
		if !trusted {
			iv.excluded += uj
			uj = 0 // the socket's apps are billed nothing
		}
		attributed := l.attributeSocket(s, uj, in.Cores)
		iv.unattrib += uj - attributed
		attr += attributed
	}

	iv.limit = microjoules(in.Limit, in.Dt)
	if in.PackagePower > in.Limit {
		iv.overshoot = microjoules(in.PackagePower-in.Limit, in.Dt)
		l.overIntvls++
	}
	l.acct.add(iv)

	rate := l.rates.At(in.At)
	kwh := float64(iv.total) / microjoulesPerKWh
	l.costUSD += kwh * rate.USDPerKWh
	l.carbonG += kwh * rate.GCO2PerKWh

	l.detectPackage(in)
	st := max(in.At-in.Dt, 0)
	raw, secs, mins := l.store.raw.fold(st, in.Dt, iv), l.store.secs.fold(st, in.Dt, iv), l.store.mins.fold(st, in.Dt, iv)
	drift := attr > 0 && l.totalShares > 0
	for i := range l.apps {
		a := &l.apps[i]
		uj := a.lastUJ
		raw.appUJ[i] = uj
		secs.appUJ[i] += uj
		mins.appUJ[i] += uj
		if drift {
			l.detectDrift(i, float64(uj)/float64(attr))
		}
		l.events[i].Value, l.events[i].Aux = uj, a.totalUJ
	}
	l.detectStragglers(in)

	// One KindEnergy event per account: every app (delta + cumulative),
	// then the package accounts. Every account every interval means the
	// latest interval's events alone rebuild the ledger bit-exactly from a
	// dump, regardless of ring overwrites.
	pkg := l.events[len(l.apps):] // in pkgAccounts order
	pkg[0].Aux, pkg[1].Aux, pkg[2].Aux, pkg[3].Aux, pkg[4].Aux =
		l.acct.unattrib, l.acct.excluded, l.acct.total, l.acct.limit, l.acct.overshoot
	l.flight.RecordBatch(flight.SourceLedger, l.events)
	l.mu.Unlock()
}

// attributeSocket distributes uj microjoules over the apps of socket s by
// largest-remainder rounding of the weights shares×activeFreq, writes each
// app's lastUJ (zero when the socket bills nothing), and returns how much
// was attributed (uj when any weight is positive, 0 otherwise). Caller
// holds l.mu.
func (l *Ledger) attributeSocket(s int, uj uint64, cores []telemetry.CoreSample) uint64 {
	idx := l.sockApps[s]
	var sumW float64
	if uj > 0 {
		for _, ai := range idx {
			w := l.share[ai] * float64(cores[l.core[ai]].ActiveFreq)
			l.weights[ai] = w
			sumW += w
		}
	}
	if sumW <= 0 { // excluded, no energy, or every core idle: static power is unattributed, not invented
		for _, ai := range idx {
			l.apps[ai].lastUJ = 0
		}
		return 0
	}
	// Each remainder goes to bin int(rem × n). The bin never decreases as
	// the remainder grows, so an app in a higher bin is strictly ahead of
	// every app in a lower one and only one bin needs ranking.
	n := len(idx)
	binN := l.binN[:n]
	clear(binN)
	var sumBase uint64
	for _, ai := range idx {
		f := float64(uj) * (l.weights[ai] / sumW)
		b := uint64(f)
		r := f - float64(b)
		bi := int(r * float64(n))
		if uint(bi) >= uint(n) {
			bi = n - 1 // r × n rounded up to n, or a NaN weight
		}
		l.baseUJ[ai], l.rem[ai], l.bin[ai] = b, r, int32(bi)
		binN[bi]++
		sumBase += b
	}
	// Largest-remainder fix-up: hand the leftover microjoules to the apps
	// with the largest fractional remainders, lowest index winning ties —
	// deterministic, and exact by construction. Floating-point error can
	// in principle push Σfloor one past uj; walk it back first.
	for sumBase > uj {
		maxAt := idx[0]
		for _, ai := range idx {
			if l.baseUJ[ai] > l.baseUJ[maxAt] {
				maxAt = ai
			}
		}
		l.baseUJ[maxAt]--
		sumBase--
	}
	// More leftover than apps (float error past 2^53 µJ) is whole laps, one
	// to every app; a lap lowers every remainder alike, so ranking ignores it.
	laps, need := (uj-sumBase)/uint64(n), int((uj-sumBase)%uint64(n))
	// Bin top holds the need-th largest remainder: every app above it takes
	// one, and what is still needed goes to the largest of top's own.
	top := n
	for need > 0 {
		top--
		if need <= binN[top] {
			break
		}
		need -= binN[top]
	}
	order := l.order[:0]
	for _, ai := range idx {
		bi := int(l.bin[ai])
		if bi == top {
			order = append(order, ai)
		}
		v := l.baseUJ[ai] + laps
		if bi > top {
			v++
		}
		l.apps[ai].lastUJ = v
		l.apps[ai].totalUJ += v
	}
	l.selectLargest(order, need)
	for _, ai := range order[:need] {
		l.apps[ai].lastUJ++
		l.apps[ai].totalUJ++
	}
	return uj
}

// selectLargest rearranges order so that its first k entries are the k apps
// with the largest remainders, the lower index winning a tie: a strict total
// order, so the set is the one k rounds of pick-the-maximum would choose.
// Hoare's selection: a partition pass per step, not a scan per microjoule.
func (l *Ledger) selectLargest(order []int, k int) {
	ahead := func(a, b int) bool {
		return l.rem[a] > l.rem[b] || (l.rem[a] == l.rem[b] && a < b)
	}
	for lo, hi := 0, len(order)-1; lo < hi && 0 < k && k < len(order); {
		pivot := order[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for ahead(order[i], pivot) {
				i++
			}
			for ahead(pivot, order[j]) {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		// order[lo..j] are ahead of order[i..hi]; between them sits the pivot.
		switch {
		case k-1 <= j:
			hi = j
		case k-1 >= i:
			lo = i
		default:
			return
		}
	}
}

// appJoules is padpd_app_energy_joules{app=name}: the byName account, or
// a retired name's last account.
func (l *Ledger) appJoules(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i, ok := l.byName[name]; ok {
		return float64(l.apps[i].totalUJ) / 1e6
	}
	return float64(l.retired[name]) / 1e6
}

// Reconfigure rebinds the ledger to a new app set after a live daemon
// reconfiguration. Each old app's cumulative total carries over to at most
// one new app of its name: the one on the same core first, then the rest of
// that name in spec order. Apps that disappear keep their joules in the
// package totals (conservation is over energy, not app identity). The
// per-app columns of the time-series tiers are reset — historical bins were
// indexed by the old spec order — while the package accounts and detectors
// keep running.
func (l *Ledger) Reconfigure(apps []core.AppSpec) {
	if l == nil || len(apps) == 0 {
		return
	}
	l.mu.Lock()
	if l.retired == nil {
		l.retired = make(map[string]uint64)
	}
	for name, i := range l.byName {
		l.retired[name] = l.apps[i].totalUJ
	}
	old := l.apps
	l.sizeApps(apps)
	taken, carried := make([]bool, len(old)), make([]bool, len(l.apps))
	for _, sameCore := range [...]bool{true, false} {
		for i := range l.apps {
			a := &l.apps[i]
			for j := 0; j < len(old) && !carried[i]; j++ {
				if !taken[j] && old[j].spec.Name == a.spec.Name && (!sameCore || old[j].spec.Core == a.spec.Core) {
					a.totalUJ, taken[j], carried[i] = old[j].totalUJ, true, true
				}
			}
		}
	}
	for i := range l.apps {
		delete(l.retired, l.apps[i].spec.Name)
	}
	l.store.reset(len(apps))
	l.mu.Unlock()
	l.initMetrics()
}

// AppTotal is one app's row in a ledger summary.
type AppTotal struct {
	Name    string  `json:"name"`
	Core    int     `json:"core"`
	Shares  int     `json:"shares"`
	TotalUJ uint64  `json:"total_uj"`
	Joules  float64 `json:"joules"`
	// EnergyFrac and ShareFrac compare where the joules went against
	// where the shares said they should go — the share-drift detector's
	// view, over the whole run.
	EnergyFrac float64 `json:"energy_frac"`
	ShareFrac  float64 `json:"share_frac"`
}

// Summary is the ledger's cumulative account book.
type Summary struct {
	ElapsedSeconds  float64           `json:"elapsed_seconds"`
	Intervals       uint64            `json:"intervals"`
	OverIntervals   uint64            `json:"over_intervals"`
	TotalUJ         uint64            `json:"total_uj"`
	UnattributedUJ  uint64            `json:"unattributed_uj"`
	ExcludedUJ      uint64            `json:"excluded_uj"`
	LimitUJ         uint64            `json:"limit_uj"`
	OvershootUJ     uint64            `json:"overshoot_uj"`
	TotalJoules     float64           `json:"total_joules"`
	OvershootJoules float64           `json:"overshoot_joules"`
	CostUSD         float64           `json:"cost_usd"`
	CarbonGrams     float64           `json:"carbon_grams"`
	Apps            []AppTotal        `json:"apps"`
	Anomalies       map[string]uint64 `json:"anomalies,omitempty"`
}

// Summarize snapshots the cumulative accounts. Allocates; intended for
// status endpoints and tests, not the hot path.
func (l *Ledger) Summarize() Summary {
	if l == nil {
		return Summary{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.summarizeLocked()
}

// summarizeLocked is Summarize for a caller that holds l.mu.
func (l *Ledger) summarizeLocked() Summary {
	s := Summary{
		ElapsedSeconds:  l.elapsed.Seconds(),
		Intervals:       l.intervals,
		OverIntervals:   l.overIntvls,
		TotalUJ:         l.acct.total,
		UnattributedUJ:  l.acct.unattrib,
		ExcludedUJ:      l.acct.excluded,
		LimitUJ:         l.acct.limit,
		OvershootUJ:     l.acct.overshoot,
		TotalJoules:     float64(l.acct.total) / 1e6,
		OvershootJoules: float64(l.acct.overshoot) / 1e6,
		CostUSD:         l.costUSD,
		CarbonGrams:     l.carbonG,
		Apps:            make([]AppTotal, len(l.apps)),
	}
	var attributed uint64
	for i := range l.apps {
		attributed += l.apps[i].totalUJ
	}
	for i := range l.apps {
		a := &l.apps[i]
		row := AppTotal{
			Name:      a.spec.Name,
			Core:      a.spec.Core,
			Shares:    int(a.spec.Shares),
			TotalUJ:   a.totalUJ,
			Joules:    float64(a.totalUJ) / 1e6,
			ShareFrac: l.shareFrac[i],
		}
		if attributed > 0 {
			row.EnergyFrac = float64(a.totalUJ) / float64(attributed)
		}
		s.Apps[i] = row
	}
	if counts := l.det.counts(); len(counts) > 0 {
		s.Anomalies = counts
	}
	return s
}

// AttributedUJ reports the cumulative microjoules attributed across all
// apps — the left side of the conservation identity. Tests use it next to
// Summarize.
func (l *Ledger) AttributedUJ() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum uint64
	for i := range l.apps {
		sum += l.apps[i].totalUJ
	}
	return sum
}
