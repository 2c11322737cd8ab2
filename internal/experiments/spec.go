package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/sim"
)

// RunSpec fully identifies one independent simulation point of the design
// space: which workload runs on how many accelerators, against which memory
// technology, under which in-flight cap, at which trace scale and simulated
// time limit. Specs are comparable, so they double as cache keys for the
// ideal-memory baselines that normalise the figures, and they have a
// canonical JSON encoding (strict on decode) shared by the sweep service,
// the CLI tools and the result store.
type RunSpec struct {
	Workload string `json:"workload"`
	NVDLAs   int    `json:"nvdlas"`
	Memory   string `json:"memory"` // "ideal" is the normalisation baseline
	Inflight int    `json:"inflight"`
	// Scale divides the trace footprints (see DSEParams.Scale).
	Scale int `json:"scale"`
	// Limit bounds one run's simulated time, in ticks.
	Limit sim.Tick `json:"limit"`
}

// String renders the spec for progress lines and error messages.
func (s RunSpec) String() string {
	return fmt.Sprintf("%s n=%d %s inflight=%d scale=%d", s.Workload, s.NVDLAs, s.Memory, s.Inflight, s.Scale)
}

// Baseline returns the ideal-memory spec this spec is normalised against
// (itself for an ideal spec). The sweep service uses it to schedule the
// baseline run a submitted point's Perf depends on.
func (s RunSpec) Baseline() RunSpec {
	s.Memory = "ideal"
	return s
}

// IsIdeal reports whether the spec is itself a normalisation baseline (ideal
// memory).
func (s RunSpec) IsIdeal() bool { return s.Memory == "" || s.Memory == "ideal" }

// Workloads lists the valid RunSpec workload names.
func Workloads() []string { return []string{"sanity3", "googlenet"} }

// Memories lists the valid RunSpec memory names: "ideal" plus the DRAM
// technologies of the evaluation.
func Memories() []string {
	return append([]string{"ideal"}, mem.TechNames()...)
}

// Validate checks every field against the simulator's accepted ranges and
// returns an actionable error naming the offending field, its value and the
// valid choices. It is shared by the CLI flag parsers and the sweep
// service's submit endpoint, so a bad spec fails identically everywhere.
func (s RunSpec) Validate() error {
	okWorkload := false
	for _, w := range Workloads() {
		if s.Workload == w {
			okWorkload = true
			break
		}
	}
	if !okWorkload {
		return fmt.Errorf("experiments: invalid spec: workload %q (want one of %s)",
			s.Workload, strings.Join(Workloads(), ", "))
	}
	if s.NVDLAs < 1 || s.NVDLAs > 64 {
		return fmt.Errorf("experiments: invalid spec: nvdlas %d (want 1..64 accelerator instances)", s.NVDLAs)
	}
	okMem := false
	for _, m := range Memories() {
		if s.Memory == m {
			okMem = true
			break
		}
	}
	if !okMem {
		return fmt.Errorf("experiments: invalid spec: memory %q (want one of %s)",
			s.Memory, strings.Join(Memories(), ", "))
	}
	if s.Inflight < 1 {
		return fmt.Errorf("experiments: invalid spec: inflight %d (want >= 1 in-flight memory requests)", s.Inflight)
	}
	if s.Scale < 1 {
		return fmt.Errorf("experiments: invalid spec: scale %d (want >= 1; the trace footprint divisor)", s.Scale)
	}
	if s.Limit == 0 {
		return fmt.Errorf("experiments: invalid spec: limit 0 (want a simulated-time bound in ticks, e.g. %d for 8 s)", 8*sim.Second)
	}
	return nil
}

// runSpecJSON mirrors RunSpec for strict decoding without recursing into
// RunSpec.UnmarshalJSON.
type runSpecJSON struct {
	Workload string   `json:"workload"`
	NVDLAs   int      `json:"nvdlas"`
	Memory   string   `json:"memory"`
	Inflight int      `json:"inflight"`
	Scale    int      `json:"scale"`
	Limit    sim.Tick `json:"limit"`
	// Shards and RTLEngine are read and dropped: result-store entries and
	// client batches exist that carry a "shards" count or an "rtl_engine"
	// name. Neither is part of a result or a fingerprint, so rejecting the
	// keys would quarantine valid stored results. Nothing sets them, so no
	// encoding contains them.
	Shards    int    `json:"shards,omitempty"`
	RTLEngine string `json:"rtl_engine,omitempty"`
}

// UnmarshalJSON decodes a spec strictly: an unknown field is an error, so a
// typo in a submitted batch ("inflght") fails loudly instead of silently
// running the zero value.
func (s *RunSpec) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var raw runSpecJSON
	if err := dec.Decode(&raw); err != nil {
		return fmt.Errorf("experiments: decoding RunSpec: %w", err)
	}
	*s = RunSpec{Workload: raw.Workload, NVDLAs: raw.NVDLAs, Memory: raw.Memory,
		Inflight: raw.Inflight, Scale: raw.Scale, Limit: raw.Limit}
	return nil
}

// CanonicalJSON renders the spec in its canonical form: compact, fields in
// declaration order. Two equal specs always produce identical bytes, so the
// encoding is usable as a deduplication key.
func (s RunSpec) CanonicalJSON() []byte {
	raw := runSpecJSON{Workload: s.Workload, NVDLAs: s.NVDLAs, Memory: s.Memory,
		Inflight: s.Inflight, Scale: s.Scale, Limit: s.Limit}
	b, err := json.Marshal(raw)
	if err != nil {
		// Marshalling a struct of strings and integers cannot fail.
		panic("experiments: RunSpec canonical encoding: " + err.Error())
	}
	return b
}

// Fingerprint returns the hex SHA-256 of the canonical JSON encoding — the
// sweep service's result-store key. Identical submitted points share a
// fingerprint, simulate once, and cache-hit forever.
func (s RunSpec) Fingerprint() string {
	sum := sha256.Sum256(s.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

// ParseSpecs decodes a JSON array of RunSpecs strictly and validates each
// one; the error names the offending array index.
func ParseSpecs(data []byte) ([]RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var specs []RunSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("experiments: decoding spec list: %w", err)
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("spec[%d]: %w", i, err)
		}
	}
	return specs, nil
}

// Spec converts a DSEParams-era positional call into a RunSpec.
func (p DSEParams) Spec(workload string, nDLA int, memory string, inflight int) RunSpec {
	return RunSpec{Workload: workload, NVDLAs: nDLA, Memory: memory,
		Inflight: inflight, Scale: p.Scale, Limit: p.Limit}
}
