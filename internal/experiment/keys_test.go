package experiment_test

import (
	"reflect"
	"testing"

	"elba/internal/campaign"
	"elba/internal/cim"
	"elba/internal/experiment"
	"elba/internal/spec"
)

// keyNeutral lists the run knobs that do not reach the trial cache key,
// each with the reason it may not.
var keyNeutral = map[string]string{
	"Parallel":      "deployment concurrency: the worker-count determinism tests pin byte-identical results",
	"TrialParallel": "trial concurrency: the worker-count determinism tests pin byte-identical results",
	"TrialCache":    "the memo itself, not an input to a trial",
	"Catalog":       "a cache serves one resource model; the spec hash names the platform and packages",
	"Store":         "where results land, not an input to a trial",
	"OnTrial":       "observes results after they are computed",
}

// keyProbes are the values a knob is moved to when a generic non-zero
// value would be invalid or would not change the trial: the base options
// run "auto" with a threshold above the probed population.
var keyProbes = map[string]any{
	"FaultProfile":     "light",
	"ScalingEngine":    "fluid",
	"ScalingThreshold": 100,
}

const keyUsers, keyWriteRatio = 500, 15

func keyExperiment(t *testing.T) *spec.Experiment {
	t.Helper()
	doc, err := spec.Parse(`experiment "keypin" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 500; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Experiments[0]
}

// runnerKey derives the key of the probe point under opts.
func runnerKey(t *testing.T, cat *cim.Catalog, e *spec.Experiment, opts experiment.Options) experiment.TrialKey {
	t.Helper()
	r, err := experiment.NewRunner(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.Catalog, opts.Store = r.Catalog(), r.Store()
	r.Options = opts
	k, err := r.TrialKeyFor(e, spec.Topology{Web: 1, App: 2, DB: 1}, keyUsers, keyWriteRatio)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// probe moves v off its current value; false means the kind has no
// generic probe.
func probe(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 3)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 7)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	default:
		return false
	}
	return true
}

// TestEveryKnobSplitsTheCacheKey: each run knob either changes the
// KeyID of the key the runner derives for a trial, or is listed in
// keyNeutral with its reason. A new knob that is neither fails here
// instead of silently aliasing cache entries.
func TestEveryKnobSplitsTheCacheKey(t *testing.T) {
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	e := keyExperiment(t)
	base := experiment.Options{ScalingEngine: "auto", ScalingThreshold: 1000}
	baseID := campaign.KeyID(runnerKey(t, cat, e, base))

	typ := reflect.TypeOf(base)
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		if _, ok := keyNeutral[name]; ok {
			continue
		}
		opts := base
		v := reflect.ValueOf(&opts).Elem().Field(i)
		if p, ok := keyProbes[name]; ok {
			v.Set(reflect.ValueOf(p))
		} else if !probe(v) {
			t.Errorf("run knob %s (%s) has no probe value: add one to keyProbes or list it in keyNeutral", name, v.Kind())
			continue
		}
		if campaign.KeyID(runnerKey(t, cat, e, opts)) == baseID {
			t.Errorf("run knob %s does not change the trial cache key: key it in trialKey or list it in keyNeutral with a reason", name)
		}
	}
	for name := range keyNeutral {
		if !fields[name] {
			t.Errorf("keyNeutral lists %s, which is not a run knob", name)
		}
	}
}

// TestRunnerKeysMatchEarlierBuilds pins the keys the runner derives, and
// their content addresses, to the values earlier builds wrote to on-disk
// caches, so those caches keep loading.
func TestRunnerKeysMatchEarlierBuilds(t *testing.T) {
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	e := keyExperiment(t)
	const specHash = "f4bbce884594767b22b90207d642285cbb075fe1317b0bbf11812a6e9500ef7a"
	for _, tc := range []struct {
		name string
		opts experiment.Options
		want experiment.TrialKey
		id   string
	}{
		{
			name: "defaults",
			opts: experiment.Options{TimeScale: 0.15},
			want: experiment.TrialKey{SpecHash: specHash, Topology: "1-2-1", Users: 500,
				WriteRatioPct: 15, TimeScale: 0.15},
			id: "5883a3e2f359915bfcdd0ecdc9dfd8e5c2cd29917090422267a5019f19fb565e",
		},
		{
			name: "every keyed knob",
			opts: experiment.Options{TimeScale: 0.2, Seed: 42, FaultProfile: "light", TrialRetries: 1,
				TraceRate: 0.25, TraceExemplars: 3, SketchRT: true, ScalingEngine: "auto", ScalingThreshold: 400},
			want: experiment.TrialKey{SpecHash: specHash, Topology: "1-2-1", Users: 500,
				WriteRatioPct: 15, Engine: "fluid", TimeScale: 0.2, RootSeed: 42, FaultProfile: "light",
				TrialRetries: 1, TraceRate: 0.25, TraceExemplars: 3, SketchRT: true},
			id: "843be14e4792f7029b170cdb469b73a31d8e48f471975f51aede76ee697c0861",
		},
	} {
		got := runnerKey(t, cat, e, tc.opts)
		if got != tc.want {
			t.Errorf("%s: runner key\n got %#v\nwant %#v", tc.name, got, tc.want)
		}
		if id := campaign.KeyID(got); id != tc.id {
			t.Errorf("%s: KeyID = %s, want %s", tc.name, id, tc.id)
		}
	}
}
