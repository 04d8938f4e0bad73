package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"elba/internal/cim"
	"elba/internal/spec"
	"elba/internal/store"
)

// exprFaultsTBL exercises every expression hook at once on the DES
// engine: a users expression, an SLO assert, and when-guarded crash and
// slowdown faults.
const exprFaultsTBL = `experiment "expr-guarded-faults" {
	benchmark rubis; platform emulab; appserver jonas;
	topology { web 1; app 2; db 1; }
	workload { users 100 + 200*ramp((t - 60s)/60s); writeratio 15; }
	slo { assert p90(rt) < 2s && x() > 5; }
	faults {
		JONAS1 at 90s for 60s when util(app, cpu) > 0.2;
		MYSQL1 slowdown 0.5 at 150s for 60s when x() > 1;
	}
}`

// driftTBL observes a fault-free users expression and SLO assert on
// 2 s windows. At TimeScale 0.1 the summed window boundaries stop a few
// ulps short of the run's end, so the last window does not land on it
// exactly; both engines must keep closing the run where they always did.
const driftTBL = `experiment "expr-drift-windows" {
	benchmark rubis; platform emulab; appserver jonas;
	topology { web 1; app 2; db 1; }
	workload { users 100 + 200*ramp((t - 60s)/60s); writeratio 15; }
	monitor { interval 2s; metrics cpu, memory, network, disk; }
	slo { assert p90(rt) < 2s && x() > 5; }
}`

// engineGolden pins the SHA-256 of the serialized store and of every
// archived monitor file for each shipped spec under the default, des and
// fluid engines (fluid only for fault-free specs), plus the inline
// expression documents. rubis-scaleout is pinned by perfbench's reference
// instead. The hashes define the trial protocol's output: any change to
// how either engine runs a trial shows up here as a changed digest.
var engineGolden = []struct {
	doc, engine    string
	store, monitor string
}{
	{"fault-injection", "",
		"279f30688c4192cff0c70fa86efa57caa114b9e6e9da2bfc20d88a82a01df681",
		"ad6529e19a8487e499727063d7155533b449a90a43787af0b39c4e14b01d93fa"},
	{"fault-injection", EngineDES,
		"9b2ecf0f6be7b0fabfa5ce9d90f7716bfd45092e91beaadcc95564a18a69ec16",
		"ad6529e19a8487e499727063d7155533b449a90a43787af0b39c4e14b01d93fa"},
	{"rubbos-autoscale", "",
		"aacd16be2d95c7f492ddc40b84c1337669d7ccb62f6f3e121926e0478073d27e",
		"687b05666c4a2c68dc78346af8528a59f00e95168cffddce0c1a4fc2bac50418"},
	{"rubbos-autoscale", EngineDES,
		"84119483f89f390062525b118efea5a54571095f656ead1777b580a231d7f85d",
		"687b05666c4a2c68dc78346af8528a59f00e95168cffddce0c1a4fc2bac50418"},
	{"rubbos-autoscale", EngineFluid,
		"045bf7e530fb9b2baceef8be26351add7cff15e68404ee34ced4ac1fdb1d278d",
		"22eb31de4e4d81443527065a285cd9f7f28609235e17eb566e38b45722ea6846"},
	{"rubbos-baseline", "",
		"4fb9826baade4b34de0e172212bca3adf355ad4484cd26054b8af426f60059c4",
		"44b29bd4bad0f468850a2e0cea3158a44e93b8d65acbf06708b7993ea322cfbe"},
	{"rubbos-baseline", EngineDES,
		"61aeb96bb5558857fc3c2ef9fe145616dfdf1f1ea34ae122be80b1dcfd28e10c",
		"44b29bd4bad0f468850a2e0cea3158a44e93b8d65acbf06708b7993ea322cfbe"},
	{"rubbos-baseline", EngineFluid,
		"0bfa874b987409ca005bb76fa793fd4c2551dfd8da0841e728c6c9c66235f1d0",
		"0fe98a93cfcef8de3074a959634fee7981c65546fae83989f1ca1a77c87e26e1"},
	{"rubbos-flashcrowd", "",
		"2bcaca4d3e732632f649eb1f78a7920871349a43c7ae1d20c911dc112982b69b",
		"d152d94a5ec207c1ec4a912f87757c98ba7d67e81dbd0d282b95789ebd91acca"},
	{"rubbos-flashcrowd", EngineDES,
		"9d294f66c911d036565f502f3017569cd7ea14543b35f90e50edbdaaceada188",
		"d152d94a5ec207c1ec4a912f87757c98ba7d67e81dbd0d282b95789ebd91acca"},
	{"rubbos-flashcrowd", EngineFluid,
		"0f086b5807fe78ea0a6544d65df1416662355cbb57d68bb34d0a5d1f88c22a67",
		"63bbb63d38ce64a17deb9d3161a711c0de38cb6791fa8af6d970e819101c150a"},
	{"rubbos-lowend-disk", "",
		"080e02dfa5a892a2a84d4fb402a607c291245d81dc8b555d5802bdb6878a79f8",
		"0c7d7ef66f1b2d921832bfc804fec05ef8a18f9a971672a0e6ddf4da99a9a161"},
	{"rubbos-lowend-disk", EngineDES,
		"2ca1db0c771a599a3a029393a9c7940f5e116778c03b812bf920539075cd77b7",
		"0c7d7ef66f1b2d921832bfc804fec05ef8a18f9a971672a0e6ddf4da99a9a161"},
	{"rubbos-lowend-disk", EngineFluid,
		"132594984b2d1d8876b994f2875cf6dd296acbe79c768c5ad61765b4cc753c7e",
		"0fba913ba11f13f5b719b8a2e1534fbb83295f4f52adb3429550c5c633d3246c"},
	{"rubis-baseline", "",
		"56dd782b7f9d27a052c81ad4298ebf9c865a8ab4c12fcac08e95729b8c11aa3b",
		"f611c09b8720e334f9c845b100c4197477de599613bf992f9d403c746721efd2"},
	{"rubis-baseline", EngineDES,
		"c876b92f82f6e0ed188332b8259e812adda45ef3c5780f9749dda14f7ba6785c",
		"f611c09b8720e334f9c845b100c4197477de599613bf992f9d403c746721efd2"},
	{"rubis-baseline", EngineFluid,
		"e6ac99307b449ab86da8bd86880044f6db4af78841a451a3ca363f7114a28565",
		"74ac97f59e2f88c3740c0f6ec04ac83448e6be61fa4f842a9890c1eece52a6ea"},
	{"expr-guarded-faults", "",
		"f24c0369da7c13e648b6ceb3c06e4e1a9c10cfde782940d6720604bcb364b6d7",
		"967abf6bbf91dae695c8e540d18d2cd3402c7c0261f9523f5fb0799c1a40f655"},
	{"expr-guarded-faults", EngineDES,
		"077eff36e84172960bbfa517ddd049574a1f938f49a61e2d945f10377caf7535",
		"967abf6bbf91dae695c8e540d18d2cd3402c7c0261f9523f5fb0799c1a40f655"},
	{"expr-drift-windows", "",
		"8b029373ff565153688a8a80a951f049bca7893389c354e95f77a9bef242b3eb",
		"6b1d201d9316b65943384c444235298ca29e75aec95aef24dc2bb70b53d81a9f"},
	{"expr-drift-windows", EngineFluid,
		"953d282612b6cdbd85ccd9c734fc184a1f4e2fa62db50f102c791f8d657c5819",
		"4f7390b160900d09d005356eff0552f7b271e78faadac3063f9c13a1fc0a5db0"},
}

// engineGoldenSource returns a golden document's TBL text.
func engineGoldenSource(t *testing.T, doc string) string {
	t.Helper()
	switch doc {
	case "expr-guarded-faults":
		return exprFaultsTBL
	case "expr-drift-windows":
		return driftTBL
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", doc+".tbl"))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// archiveDigest hashes every file under dir, in path order, together with
// its path relative to dir.
func archiveDigest(t *testing.T, dir string) string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(dir, p)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineGoldenBytes runs each golden document at TimeScale 0.1 and
// compares its store JSON and monitor archive digests with the pinned
// values.
func TestEngineGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every shipped spec; skipped in -short")
	}
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range engineGolden {
		name := g.doc + "/" + g.engine
		if g.engine == "" {
			name = g.doc + "/default"
		}
		t.Run(name, func(t *testing.T) {
			doc, err := spec.Parse(engineGoldenSource(t, g.doc))
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(cat, store.New())
			if err != nil {
				t.Fatal(err)
			}
			r.TimeScale = 0.1
			r.TrialParallel = 2
			r.ScalingEngine = g.engine
			r.ArchiveDir = t.TempDir()
			for _, e := range doc.Experiments {
				if err := r.RunExperiment(e); err != nil {
					t.Fatal(err)
				}
			}
			data, err := r.Store().MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != g.store {
				t.Errorf("store JSON sha256 = %s, want %s", got, g.store)
			}
			if got := archiveDigest(t, r.ArchiveDir); got != g.monitor {
				t.Errorf("monitor archive sha256 = %s, want %s", got, g.monitor)
			}
		})
	}
}
