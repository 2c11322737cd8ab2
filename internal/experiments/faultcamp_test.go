package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"gem5rtl/internal/guard"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/trace"
)

// campSpec is the small deterministic point every fault-campaign test runs.
func campSpec() RunSpec {
	return RunSpec{Workload: "sanity3", NVDLAs: 1, Memory: "ideal",
		Inflight: 64, Scale: 64, Limit: 2 * sim.Second}
}

// campOutputs computes the absolute output regions for campSpec, mirroring
// what FaultCampaign derives before classifying.
func campOutputs(t *testing.T) []memRegion {
	t.Helper()
	tr, err := trace.Scaled("sanity3", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	_, outs := traceRegions(tr)
	if len(outs) == 0 {
		t.Fatal("sanity3 trace has no output regions")
	}
	abs := make([]memRegion, len(outs))
	for i, reg := range outs {
		abs[i] = memRegion{uint64(1)<<32 + reg.addr, reg.size}
	}
	return abs
}

// refRun executes the fault-free reference once for the targeted tests.
func refRun(t *testing.T, outs []memRegion) faultRunResult {
	t.Helper()
	ref, err := Runner{}.faultRun(context.Background(), FaultCampaign{Spec: campSpec()}, nil, outs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.hang != nil {
		t.Fatalf("reference run hung: %s", ref.hang.Reason)
	}
	return ref
}

// A dropped response wedges the accelerator's transaction table; the watchdog
// reaps it and the injection classifies as hung, not as a crashed campaign.
func TestFaultDropRespClassifiesHung(t *testing.T) {
	outs := campOutputs(t)
	ref := refRun(t, outs)
	f := guard.Fault{Kind: guard.DropResp, Link: 0, PktIndex: 0}
	run, err := Runner{}.faultRun(context.Background(), FaultCampaign{Spec: campSpec()}, &f, outs)
	if err != nil {
		t.Fatal(err)
	}
	outcome, detail := classify(run, ref)
	if outcome != guard.Hung {
		t.Fatalf("drop-resp outcome = %v (%s), want hung", outcome, detail)
	}
	if run.hang == nil || run.end >= campSpec().Limit {
		t.Fatalf("hang not reaped early: end = %d", run.end)
	}
}

// A flipped bit in an output write changes the architectural result: the
// signature diverges from the reference and the injection is corrupted.
func TestFaultWritePayloadFlipClassifiesCorrupted(t *testing.T) {
	outs := campOutputs(t)
	ref := refRun(t, outs)
	f := guard.Fault{Kind: guard.WritePayloadFlip, Link: 0, PktIndex: 0, Byte: 5, Bit: 2}
	run, err := Runner{}.faultRun(context.Background(), FaultCampaign{Spec: campSpec()}, &f, outs)
	if err != nil {
		t.Fatal(err)
	}
	if !run.fired {
		t.Fatal("write fault never reached")
	}
	outcome, _ := classify(run, ref)
	if outcome != guard.Corrupted {
		t.Fatalf("write-payload-flip outcome = %v, want corrupted", outcome)
	}
}

// The behavioural accelerator model consumes read responses only for pacing,
// not data, so a read-payload flip must classify as masked.
func TestFaultReadPayloadFlipClassifiesMasked(t *testing.T) {
	outs := campOutputs(t)
	ref := refRun(t, outs)
	f := guard.Fault{Kind: guard.ReadPayloadFlip, Link: 0, PktIndex: 0, Byte: 0, Bit: 7}
	run, err := Runner{}.faultRun(context.Background(), FaultCampaign{Spec: campSpec()}, &f, outs)
	if err != nil {
		t.Fatal(err)
	}
	if !run.fired {
		t.Fatal("read fault never reached")
	}
	outcome, _ := classify(run, ref)
	if outcome != guard.Masked {
		t.Fatalf("read-payload-flip outcome = %v, want masked", outcome)
	}
}

// A fault indexed far beyond the traffic never fires and reports itself as
// such instead of silently counting as masked-by-luck.
func TestFaultUnreachedReportsNeverReached(t *testing.T) {
	outs := campOutputs(t)
	ref := refRun(t, outs)
	f := guard.Fault{Kind: guard.DropResp, Link: 0, PktIndex: 1 << 40}
	run, err := Runner{}.faultRun(context.Background(), FaultCampaign{Spec: campSpec()}, &f, outs)
	if err != nil {
		t.Fatal(err)
	}
	outcome, detail := classify(run, ref)
	if outcome != guard.Masked || !strings.Contains(detail, "never reached") {
		t.Fatalf("unreached fault = %v (%q), want masked/never reached", outcome, detail)
	}
}

// The tentpole determinism guarantee: same seed, different worker counts,
// byte-identical classification table and deeply equal results.
func TestFaultCampaignDeterministic(t *testing.T) {
	c := FaultCampaign{Spec: campSpec(), Seed: 7, Count: 10}
	a, err := Runner{Workers: 4}.FaultCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Runner{Workers: 1}.FaultCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged across worker counts:\n%+v\nvs\n%+v", a, b)
	}
	if FormatFaultTable(a) != FormatFaultTable(b) {
		t.Fatal("classification tables differ")
	}
	for _, r := range a {
		if r.Err != nil {
			t.Fatalf("fault %d errored: %v", r.Index, r.Err)
		}
	}
	// Fault i is seed-derived independently of Count: a shorter campaign is a
	// strict prefix of a longer one.
	short := FaultCampaign{Spec: campSpec(), Seed: 7, Count: 4}
	s, err := Runner{Workers: 2}.FaultCampaign(context.Background(), short)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, a[:4]) {
		t.Fatal("count-4 campaign is not a prefix of the count-10 campaign")
	}
}

func TestFaultCampaignRejectsNoAccelerators(t *testing.T) {
	_, err := Runner{}.FaultCampaign(context.Background(), FaultCampaign{
		Spec: RunSpec{Workload: "sanity3", Memory: "ideal", Scale: 64, Limit: sim.Second}})
	if err == nil || !strings.Contains(err.Error(), "at least one accelerator") {
		t.Fatalf("err = %v", err)
	}
}

func TestFormatFaultTable(t *testing.T) {
	results := []FaultResult{
		{Fault: guard.Fault{Kind: guard.DropResp}, Outcome: guard.Hung},
		{Fault: guard.Fault{Kind: guard.WritePayloadFlip}, Outcome: guard.Corrupted},
		{Fault: guard.Fault{Kind: guard.WritePayloadFlip}, Outcome: guard.Masked},
		{Fault: guard.Fault{Kind: guard.DRAMBitFlip}, Err: context.Canceled},
	}
	table := FormatFaultTable(results)
	for _, want := range []string{"kind", "drop-resp", "write-payload-flip", "errors: 1"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "dram-bit-flip") {
		t.Fatalf("errored-only kind should not appear as a row:\n%s", table)
	}
}

// The PMU campaign completes, classifies every injection, and is seed-stable.
func TestPMUFaultCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("PMU campaign runs several guest programs")
	}
	c := PMUCampaign{Seed: 3, Count: 4}
	a, err := Runner{Workers: 2}.PMUFaultCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Runner{Workers: 1}.PMUFaultCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed diverged across worker counts")
	}
	for _, r := range a {
		if r.Err != nil {
			t.Fatalf("fault %d errored: %v", r.Index, r.Err)
		}
		if r.Fault.Kind != guard.RTLStateFlip {
			t.Fatalf("fault %d kind = %v", r.Index, r.Fault.Kind)
		}
	}
}

// RunPointGuarded (the executor Runner.Guard selects) is transparent on a
// healthy point: same completion as RunPoint, no spurious trip.
func TestRunPointGuardedCleanRun(t *testing.T) {
	spec := campSpec()
	plain, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Run(context.Background(), spec, WithWatchdog(guard.Config{}))
	if err != nil {
		t.Fatalf("clean guarded point errored: %v", err)
	}
	if guarded != plain {
		t.Fatalf("guarded run finished at %d, plain at %d", guarded, plain)
	}
}
