// Package elba is an observation-based performance characterization
// toolkit for distributed n-tier applications, reproducing the system
// described in Pu et al., "An Observation-Based Approach to Performance
// Characterization of Distributed n-tier Applications" (IISWC 2007).
//
// The toolkit automates the full experimental loop the paper builds with
// the Elba project's Mulini code generator:
//
//   - TBL experiment specifications (ParseTBL) describe the benchmark,
//     platform, w-a-d topology, workload sweep, trial protocol, SLOs, and
//     monitoring.
//   - A CIM/MOF resource model (LoadCatalog) describes the hardware
//     platforms and software packages; the built-in catalog carries the
//     paper's Warp, Rohan, and Emulab clusters and RUBiS/RUBBoS stacks.
//   - The Mulini generator turns both into deployment scripts, vendor
//     configuration files, workload-driver parameters, and per-host
//     monitors; the deployment engine executes the generated scripts
//     against a simulated cluster (the testbed substrate).
//   - The experiment runner drives the deployed application through
//     warm-up/run/cool-down trials with closed-loop emulated users and
//     stores response times, throughput, and sysstat-style monitor data.
//   - Report renderers regenerate the paper's Tables 1–7 and the data
//     series behind Figures 1–8; the scale-out controller reproduces the
//     paper's grow-the-bottleneck strategy.
//
// Quick start:
//
//	c, err := elba.New(elba.Options{})
//	if err != nil { ... }
//	err = c.RunTBL(`experiment "probe" {
//	    benchmark rubis; platform emulab; appserver jonas;
//	    workload { users 50 to 250 step 50; writeratio 15; }
//	}`)
//	points := c.Results().RTvsUsers("probe", "1-1-1", 15)
//
// See the examples directory for complete programs.
package elba

import (
	"elba/internal/bench"
	"elba/internal/bottleneck"
	"elba/internal/cim"
	"elba/internal/core"
	"elba/internal/experiment"
	"elba/internal/mulini"
	"elba/internal/spec"
	"elba/internal/store"
)

// Characterizer is the top-level engine: it runs TBL experiments on the
// simulated testbed and accumulates results and generation accounting.
type Characterizer = core.Characterizer

// Options configure a Characterizer.
type Options = core.Options

// New creates a Characterizer. The zero Options run the paper's full
// trial protocol on the built-in platform catalog.
func New(opts Options) (*Characterizer, error) { return core.New(opts) }

// Experiment specification types (the TBL language).
type (
	// Document is a parsed TBL file.
	Document = spec.Document
	// Experiment is one TBL experiment block.
	Experiment = spec.Experiment
	// Topology is the paper's w-a-d replica triple.
	Topology = spec.Topology
	// Range is a TBL numeric sweep.
	Range = spec.Range
)

// ParseTBL parses a Testbed Language document.
func ParseTBL(src string) (*Document, error) { return spec.Parse(src) }

// ParseTopology parses a "w-a-d" triple such as "1-8-2".
func ParseTopology(s string) (Topology, error) { return spec.ParseTopology(s) }

// ValidateExperiment checks a programmatically built experiment.
func ValidateExperiment(e *Experiment) error { return spec.Validate(e) }

// Resource model types (CIM/MOF).
type (
	// Catalog is the typed view of the CIM resource model.
	Catalog = cim.Catalog
	// Platform describes one hardware cluster (paper Table 2).
	Platform = cim.Platform
	// SoftwarePackage describes one software component (paper Table 1).
	SoftwarePackage = cim.SoftwarePackage
)

// LoadCatalog loads the built-in resource model: the paper's three
// platforms and software stacks.
func LoadCatalog() (*Catalog, error) { return cim.LoadCatalog() }

// Results types.
type (
	// Store is the results database.
	Store = store.Store
	// Result is one trial's measured outcome.
	Result = store.Result
	// Key identifies a trial.
	Key = store.Key
	// SeriesPoint is one (x, y) extraction from the store.
	SeriesPoint = store.SeriesPoint
	// Surface is a users × write-ratio metric grid (Figures 1–3).
	Surface = store.Surface
)

// NewStore creates an empty results store.
func NewStore() *Store { return store.New() }

// Experiment execution types.
type (
	// TrialOutcome carries one trial's result and monitor session.
	TrialOutcome = experiment.TrialOutcome
	// TrialConfig parameterizes a single trial.
	TrialConfig = experiment.TrialConfig
	// ScaleOutOptions parameterize the §V.A scale-out loop.
	ScaleOutOptions = experiment.ScaleOutOptions
	// Step is one scale-out iteration record.
	Step = experiment.Step
	// KneeSearchResult reports an adaptive saturation-point search.
	KneeSearchResult = experiment.KneeSearchResult
)

// DefaultScaleOutOptions mirror the paper's experiment envelope.
var DefaultScaleOutOptions = experiment.DefaultScaleOutOptions

// Scale-out actions.
const (
	ActionIncreaseLoad = experiment.ActionIncreaseLoad
	ActionAddAppServer = experiment.ActionAddAppServer
	ActionAddDBServer  = experiment.ActionAddDBServer
	ActionStop         = experiment.ActionStop
)

// Prediction is the exact-MVA analytical counterpart of a trial result;
// Characterizer.Predict produces it for any configuration, making the
// paper's observation-vs-model comparison executable.
type Prediction = core.Prediction

// Bottleneck analysis.
type (
	// Verdict is a bottleneck diagnosis.
	Verdict = bottleneck.Verdict
	// Thresholds parameterize detection.
	Thresholds = bottleneck.Thresholds
)

// DetectBottleneck diagnoses the bottleneck tier from a trial result.
func DetectBottleneck(r Result) Verdict {
	return bottleneck.Detect(r, bottleneck.DefaultThresholds)
}

// Improvement reports the percent response-time reduction from base to
// variant (Table 6's metric).
func Improvement(baseRTms, variantRTms float64) float64 {
	return bottleneck.Improvement(baseRTms, variantRTms)
}

// SaturationUsers estimates a configuration's saturation population from
// an observed response-time series.
func SaturationUsers(points []SeriesPoint, multiple float64) (float64, bool) {
	return bottleneck.SaturationUsers(points, multiple)
}

// Generation types (Mulini).
type (
	// Deployment is a resolved deployment model with its bundle.
	Deployment = mulini.Deployment
	// Bundle is a set of generated artifacts.
	Bundle = mulini.Bundle
	// Artifact is one generated file.
	Artifact = mulini.Artifact
)

// Workload model access for analysis tools.
type WorkloadProfile = bench.Profile

// The paper's experiment suites in TBL form.
var (
	// PaperSuite is the full-fidelity five-set suite behind Figures 1–8
	// and Tables 3–7.
	PaperSuite = core.PaperSuite
	// ReducedSuite is the cut-down suite for quick runs.
	ReducedSuite = core.ReducedSuite
	// FigureOf maps standard experiment sets to paper figures.
	FigureOf = core.FigureOf
	// RubisScaleoutTBL builds a parameterized scale-out set.
	RubisScaleoutTBL = core.RubisScaleoutTBL
)
