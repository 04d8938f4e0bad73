package sim

import (
	"math"
	"math/rand/v2"
	"testing"
)

// fixedModel is a one-interaction workload for driver tests.
type fixedModel struct {
	it    Interaction
	think float64
}

type fixedSession struct{ it Interaction }

func (s fixedSession) Next(*rand.Rand) Interaction { return s.it }

func (m fixedModel) Name() string                  { return "fixed" }
func (m fixedModel) NewSession(*rand.Rand) Session { return fixedSession{m.it} }
func (m fixedModel) ThinkTime() float64            { return m.think }
func (m fixedModel) Interactions() []Interaction   { return []Interaction{m.it} }

// rtTap records each measured successful response through the driver's
// RT observer, with its issue time recovered from the completion clock.
type rtTap struct {
	k   *Kernel
	got []tapped
}

type tapped struct{ issued, rt float64 }

func (r *rtTap) Observe(rt float64) { r.got = append(r.got, tapped{r.k.Now() - rt, rt}) }

func buildApp(k *Kernel, web, app, db int, appMax int) *NTier {
	mk := func(name string, n, maxJobs int) []*Station {
		out := make([]*Station, n)
		for i := range out {
			out[i] = NewStation(k, StationConfig{Name: name, Servers: 1, Speed: 1, MaxJobs: maxJobs})
		}
		return out
	}
	return &NTier{
		Web: NewTier(k, "web", RoundRobin, mk("WEB", web, 0)),
		App: NewTier(k, "app", RoundRobin, mk("APP", app, appMax)),
		DB:  NewRAIDb(k, RoundRobin, mk("DB", db, 0)),
	}
}

func TestDriverClosedLoopThroughput(t *testing.T) {
	// Closed-loop law: X = N / (Z + R). With light load, R ≈ sum of
	// demands, so throughput should be close to N/(Z+D).
	k := NewKernel(3)
	app := buildApp(k, 1, 4, 1, 0)
	model := fixedModel{
		it:    Interaction{Name: "ix", WebDemand: 0.001, AppDemand: 0.010, DBDemand: 0.002},
		think: 1.0,
	}
	d := NewDriver(k, app, model, DriverConfig{Users: 20, RampUp: 1}, 99)
	d.Start()
	k.Run(30)
	d.BeginMeasurement()
	start := k.Now()
	k.Run(start + 120)
	d.EndMeasurement()
	dur := k.Now() - start
	x := float64(d.ResponseTimes().Count()) / dur
	want := 20.0 / (1.0 + 0.013)
	if math.Abs(x-want)/want > 0.1 {
		t.Fatalf("throughput = %.2f req/s, want ≈%.2f", x, want)
	}
}

func TestDriverResponseTimeGrowsWithLoad(t *testing.T) {
	rt := func(users int) float64 {
		k := NewKernel(5)
		app := buildApp(k, 1, 1, 1, 0)
		model := fixedModel{
			it:    Interaction{Name: "ix", WebDemand: 0.001, AppDemand: 0.030, DBDemand: 0.004},
			think: 1.0,
		}
		d := NewDriver(k, app, model, DriverConfig{Users: users, RampUp: 1}, 7)
		d.Start()
		k.Run(20)
		d.BeginMeasurement()
		k.Run(k.Now() + 60)
		d.EndMeasurement()
		return d.ResponseTimes().Mean()
	}
	light, heavy := rt(5), rt(60)
	if heavy <= light*2 {
		t.Fatalf("saturated response time %.4f not ≫ light-load %.4f", heavy, light)
	}
}

func TestDriverRejectionCountsAsError(t *testing.T) {
	k := NewKernel(5)
	app := buildApp(k, 1, 1, 1, 2) // tiny app connection pool
	model := fixedModel{
		it:    Interaction{Name: "ix", AppDemand: 0.5},
		think: 0.05,
	}
	d := NewDriver(k, app, model, DriverConfig{Users: 30, RampUp: 0.1}, 7)
	d.Start()
	k.Run(5)
	d.BeginMeasurement()
	k.Run(k.Now() + 30)
	d.EndMeasurement()
	if d.Errors() == 0 {
		t.Fatalf("overloaded pool produced no errors")
	}
	rejected := app.App.Rejected()
	if rejected == 0 {
		t.Fatalf("app tier recorded no rejections")
	}
}

func TestDriverTimeoutAccounting(t *testing.T) {
	k := NewKernel(5)
	app := buildApp(k, 1, 1, 1, 0)
	model := fixedModel{
		it:    Interaction{Name: "slow", AppDemand: 2.0},
		think: 0.01,
	}
	d := NewDriver(k, app, model, DriverConfig{Users: 10, Timeout: 1.0, RampUp: 0.1}, 7)
	d.Start()
	d.BeginMeasurement()
	k.Run(60)
	d.EndMeasurement()
	if d.Timeouts() == 0 {
		t.Fatalf("expected client timeouts under 2s service / 1s timeout")
	}
	// Timed-out requests must not pollute the success sample.
	if d.ResponseTimes().Count() > 0 && d.ResponseTimes().Max() > 1.0 {
		t.Fatalf("success sample contains RT above the timeout: %g", d.ResponseTimes().Max())
	}
}

func TestDriverMeasurementWindow(t *testing.T) {
	k := NewKernel(5)
	app := buildApp(k, 1, 1, 1, 0)
	model := fixedModel{it: Interaction{Name: "ix", AppDemand: 0.01}, think: 0.1}
	d := NewDriver(k, app, model, DriverConfig{Users: 5, RampUp: 0.1}, 7)
	tap := &rtTap{k: k}
	d.SetRTObserver(tap)
	d.Start()
	k.Run(10) // warm-up: nothing recorded
	if d.ResponseTimes().Count() != 0 || len(tap.got) != 0 {
		t.Fatalf("responses captured before measurement began")
	}
	d.BeginMeasurement()
	k.Run(20)
	d.EndMeasurement()
	n := d.ResponseTimes().Count()
	if n == 0 {
		t.Fatalf("no responses captured during measurement")
	}
	if len(tap.got) != n {
		t.Fatalf("observer saw %d responses, sample holds %d", len(tap.got), n)
	}
	k.Run(30) // cool-down: nothing more recorded
	if d.ResponseTimes().Count() != n || len(tap.got) != n {
		t.Fatalf("responses captured after measurement ended")
	}
	for _, r := range tap.got {
		if r.issued < 10 {
			t.Fatalf("request issued during warm-up leaked into measurement: %+v", r)
		}
	}
}

func TestDriverPerInteractionStats(t *testing.T) {
	k := NewKernel(5)
	app := buildApp(k, 1, 1, 1, 0)
	model := fixedModel{it: Interaction{Name: "only", AppDemand: 0.01}, think: 0.1}
	d := NewDriver(k, app, model, DriverConfig{Users: 3, RampUp: 0.1}, 7)
	d.Start()
	d.BeginMeasurement()
	k.Run(20)
	d.EndMeasurement()
	per := d.PerInteraction()
	s, ok := per["only"]
	if !ok || s.Count() == 0 {
		t.Fatalf("per-interaction stats missing: %v", per)
	}
}

func TestDriverDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, float64) {
		k := NewKernel(5)
		app := buildApp(k, 1, 2, 1, 0)
		model := fixedModel{it: Interaction{Name: "ix", AppDemand: 0.02}, think: 0.5}
		d := NewDriver(k, app, model, DriverConfig{Users: 10, RampUp: 1}, 123)
		d.Start()
		d.BeginMeasurement()
		k.Run(50)
		d.EndMeasurement()
		return d.Issued(), d.ResponseTimes().Mean()
	}
	i1, m1 := run()
	i2, m2 := run()
	if i1 != i2 || m1 != m2 {
		t.Fatalf("same seeds diverged: (%d,%g) vs (%d,%g)", i1, m1, i2, m2)
	}
}

func TestDriverMaxSessionsCausesRefusals(t *testing.T) {
	k := NewKernel(5)
	app := buildApp(k, 1, 1, 1, 0)
	model := fixedModel{it: Interaction{Name: "ix", AppDemand: 0.005}, think: 0.5}
	d := NewDriver(k, app, model, DriverConfig{Users: 100, MaxSessions: 80, RampUp: 0.5}, 7)
	d.Start()
	k.Run(10)
	d.BeginMeasurement()
	k.Run(k.Now() + 60)
	d.EndMeasurement()
	// Every measured completion is a success or an error.
	total := int64(d.ResponseTimes().Count()) + d.Errors()
	if total == 0 {
		t.Fatalf("no requests measured")
	}
	rate := float64(d.Errors()) / float64(total)
	// 20 of 100 users are refused: error rate ≈ 20%.
	if math.Abs(rate-0.2) > 0.04 {
		t.Fatalf("refusal rate = %.3f, want ≈0.20", rate)
	}
	// Refused requests never reach the servers: the web tier, which
	// fronts every admitted request and rejects none, saw only the
	// connected users' share of everything issued since Start.
	web := app.Web.Stations()[0]
	if web.Rejected() != 0 {
		t.Fatalf("web tier rejected %d requests", web.Rejected())
	}
	arrived := web.Completed() + int64(web.InFlight())
	refused := float64(d.Issued()-arrived) / float64(d.Issued())
	if math.Abs(refused-0.2) > 0.04 {
		t.Fatalf("share of requests that never reached the web tier = %.3f, want ≈0.20", refused)
	}
}

func TestDriverMaxSessionsUnlimitedByDefault(t *testing.T) {
	k := NewKernel(5)
	app := buildApp(k, 1, 1, 1, 0)
	model := fixedModel{it: Interaction{Name: "ix", AppDemand: 0.005}, think: 0.5}
	d := NewDriver(k, app, model, DriverConfig{Users: 50, RampUp: 0.5}, 7)
	d.Start()
	d.BeginMeasurement()
	k.Run(30)
	d.EndMeasurement()
	if d.Errors() != 0 {
		t.Fatalf("unexpected errors with no session cap: %d", d.Errors())
	}
}

// TestLittlesLaw is the closed-network sanity property: N = X·(R + Z)
// within tolerance, for several populations.
func TestLittlesLaw(t *testing.T) {
	for _, users := range []int{10, 50, 150} {
		k := NewKernel(uint64(users))
		app := buildApp(k, 1, 2, 1, 0)
		model := fixedModel{
			it:    Interaction{Name: "ix", WebDemand: 0.001, AppDemand: 0.02, DBDemand: 0.003},
			think: 2.0,
		}
		d := NewDriver(k, app, model, DriverConfig{Users: users, RampUp: 1}, 77)
		d.Start()
		k.Run(30)
		d.BeginMeasurement()
		start := k.Now()
		k.Run(start + 120)
		d.EndMeasurement()
		dur := k.Now() - start
		x := float64(d.ResponseTimes().Count()) / dur
		r := d.ResponseTimes().Mean()
		n := x * (r + 2.0)
		if math.Abs(n-float64(users))/float64(users) > 0.08 {
			t.Errorf("users=%d: Little's law violated: X(R+Z) = %.1f", users, n)
		}
	}
}

// TestDriverDynamicPopulation grows and shrinks the population mid-run
// and checks throughput follows the closed-loop law at each level.
func TestDriverDynamicPopulation(t *testing.T) {
	k := NewKernel(5)
	app := buildApp(k, 1, 4, 1, 0)
	model := fixedModel{
		it:    Interaction{Name: "ix", WebDemand: 0.001, AppDemand: 0.005, DBDemand: 0.001},
		think: 1.0,
	}
	d := NewDriver(k, app, model, DriverConfig{Users: 20, RampUp: 1}, 9)
	d.Start()
	if d.ActiveUsers() != 20 {
		t.Fatalf("active = %d", d.ActiveUsers())
	}
	k.Run(20)

	measure := func(dur float64) float64 {
		d.BeginMeasurement()
		start := k.Now()
		k.Run(start + dur)
		d.EndMeasurement()
		return float64(d.ResponseTimes().Count()) / dur
	}
	x20 := measure(80)

	d.AddUsers(40, 2)
	if d.ActiveUsers() != 60 {
		t.Fatalf("active after add = %d", d.ActiveUsers())
	}
	k.Run(k.Now() + 10) // settle
	x60 := measure(80)
	if ratio := x60 / x20; math.Abs(ratio-3) > 0.35 {
		t.Fatalf("throughput should triple with 3x users: %.2f vs %.2f (ratio %.2f)", x20, x60, ratio)
	}

	d.RemoveUsers(40)
	if d.ActiveUsers() != 20 {
		t.Fatalf("active after remove = %d", d.ActiveUsers())
	}
	k.Run(k.Now() + 10)
	xBack := measure(80)
	if math.Abs(xBack-x20)/x20 > 0.15 {
		t.Fatalf("throughput should return to base: %.2f vs %.2f", xBack, x20)
	}
}

func TestDriverRemoveMoreThanActive(t *testing.T) {
	k := NewKernel(5)
	app := buildApp(k, 1, 1, 1, 0)
	model := fixedModel{it: Interaction{Name: "ix", AppDemand: 0.01}, think: 0.5}
	d := NewDriver(k, app, model, DriverConfig{Users: 3, RampUp: 0.1}, 9)
	d.Start()
	d.RemoveUsers(10)
	if d.ActiveUsers() != 0 {
		t.Fatalf("active = %d, want 0", d.ActiveUsers())
	}
	k.Run(20)
	// All sessions retired: no measurement activity after settle.
	issued := d.Issued()
	d.BeginMeasurement()
	k.Run(k.Now() + 10)
	d.EndMeasurement()
	if d.Issued() != issued || d.ResponseTimes().Count() != 0 || d.Errors() != 0 {
		t.Fatalf("retired users still issuing requests")
	}
}
