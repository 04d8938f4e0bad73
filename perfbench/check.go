package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"elba/internal/store"
)

// reference.json holds, per engine and seed, the SHA-256 of a campaign's
// canonical store JSON and the exact counts behind it. Regenerate it only
// when a change is meant to alter stored results:
//
//	bash perfbench/run.sh -reference-seeds 0-31 > perfbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	TimeScale float64              `json:"timescale"`
	SpecHash  string               `json:"spec_sha256"`
	Entries   map[string]reference `json:"entries"` // "<engine>/<seed>"
}

type reference struct {
	Digest string `json:"digest"`
	outputCounts
}

// outputCounts are a campaign's exact simulated counts. A change that
// only speeds the program up must leave every one of them unchanged.
type outputCounts struct {
	Completed    int    `json:"completed"`
	Failed       int    `json:"failed"`
	Requests     int64  `json:"sim_requests"`
	MonitorBytes int64  `json:"monitor_bytes"`
	CacheHits    uint64 `json:"cache_hits,omitempty"`
	CacheMisses  uint64 `json:"cache_misses,omitempty"`
}

func countOutput(st *store.Store) outputCounts {
	var c outputCounts
	for _, r := range st.All() {
		if r.Completed {
			c.Completed++
		} else {
			c.Failed++
		}
		c.Requests += r.Requests
		c.MonitorBytes += int64(r.CollectedBytes)
	}
	return c
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func specHash() string { return digest([]byte(scaleoutSpec)) }

// outputCheck is the output check of one run. The run's first campaign
// must match the committed reference for its seed, when there is one, and
// every later campaign must store the same bytes as the first. For a seed
// without a reference, the first run of a source tree records its digest
// under the build directory and later runs of that tree must match it.
type outputCheck struct {
	key    string     // "<engine>/<seed>"
	ref    *reference // nil when no reference is committed for key
	record string     // drift record path, used when ref is nil
	first  []byte
	counts outputCounts
}

func newOutputCheck(engine string, seed uint64, timescale float64, source, root string) (*outputCheck, error) {
	var refs referenceFile
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	k := &outputCheck{key: engine + "/" + strconv.FormatUint(seed, 10)}
	if refs.TimeScale == timescale && refs.SpecHash == specHash() {
		if ref, ok := refs.Entries[k.key]; ok {
			k.ref = &ref
		}
	}
	if k.ref == nil {
		name := fmt.Sprintf("%s-%s-%g-%d.json", source, engine, timescale, seed)
		k.record = filepath.Join(root, ".bench_build", "perfbench-drift", name)
	}
	return k, nil
}

// match checks one campaign's canonical results.
func (k *outputCheck) match(data []byte, counts outputCounts) error {
	if k.first != nil {
		if !bytes.Equal(data, k.first) {
			return fmt.Errorf("results differ from the run's first campaign (digest %.12s, counts %+v)",
				digest(data), counts)
		}
		return nil
	}
	if k.ref != nil {
		if got := digest(data); got != k.ref.Digest {
			return fmt.Errorf("results digest %.12s, reference %.12s for %s (counts %+v, reference %+v)",
				got, k.ref.Digest, k.key, counts, k.ref.outputCounts)
		}
	}
	k.first, k.counts = data, counts
	return nil
}

// finish compares the run's output with the drift record of an earlier
// run of the same seed and source tree, or writes the record.
func (k *outputCheck) finish() error {
	if k.ref != nil || k.first == nil {
		return nil
	}
	rec := reference{Digest: digest(k.first), outputCounts: k.counts}
	rec.CacheHits, rec.CacheMisses = 0, 0
	if data, err := os.ReadFile(k.record); err == nil {
		var prev reference
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("drift record %s: %w", k.record, err)
		}
		if prev != rec {
			return fmt.Errorf("output drifted between runs of %s: %+v, earlier run %+v", k.key, rec, prev)
		}
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(k.record), 0o755); err != nil {
		return err
	}
	return os.WriteFile(k.record, data, 0o644)
}

// writeReference runs one cold campaign per engine and seed and prints
// the reference file.
func writeReference(out io.Writer, seeds string, timescale float64) error {
	lo, hi, err := parseRange(seeds)
	if err != nil {
		return err
	}
	refs := referenceFile{TimeScale: timescale, SpecHash: specHash(), Entries: map[string]reference{}}
	for _, w := range workloads {
		if w.primed {
			continue // re-submits the DES document; its reference is des-scaleout's
		}
		for seed := lo; seed <= hi; seed++ {
			b, err := newBench(w, seed, timescale, "", "")
			if err != nil {
				return err
			}
			b.check = &outputCheck{key: "reference"}
			if err := b.setUp(1); err != nil {
				return err
			}
			r := b.submit(b.svc, false, false)
			b.close()
			if r.err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, r.err)
			}
			ref := reference{Digest: digest(b.check.first), outputCounts: r.counts}
			ref.CacheHits, ref.CacheMisses = 0, 0
			refs.Entries[w.refEngine()+"/"+strconv.FormatUint(seed, 10)] = ref
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}

func parseRange(s string) (lo, hi uint64, err error) {
	a, b, found := strings.Cut(s, "-")
	if lo, err = strconv.ParseUint(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("seed range %q: %w", s, err)
	}
	hi = lo
	if found {
		if hi, err = strconv.ParseUint(b, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("seed range %q: %w", s, err)
		}
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("seed range %q is empty", s)
	}
	return lo, hi, nil
}
