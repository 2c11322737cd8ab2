package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
)

// TestCheckpointHoldsAnsweredPostedWrites splits the contended DSE point (4
// NVDLAs on DDR4-1ch) twice: at 2 µs, while the packet pools are still
// growing, so reads in flight carry fresh packets' nil payloads, and at 8 µs,
// where the write queue holds posted writes whose requestors already have
// their responses — pooled packets that, since the hand-off, the queue alone
// keeps. Each checkpoint must be the one the build that never pooled a
// posted write saved (the pinned SHA-256s were taken from it, and have moved
// since only with the stream version word, 1 there and 2 here), so a restore
// from these bytes is also a restore of that build's checkpoint, and it must
// finish the point on the cold run's tick.
func TestCheckpointHoldsAnsweredPostedWrites(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	spec := RunSpec{Workload: "sanity3", NVDLAs: 4, Memory: "DDR4-1ch", Inflight: 240, Scale: 32, Limit: 8 * sim.Second}
	cold, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []struct {
		at       sim.Tick
		answered bool
		sha256   string
	}{
		{2 * sim.Microsecond, false, "96671cbb6f02a9318026b7a5aaceb8059ae00d4071c5f6d5a40807a9c61c4390"},
		{8 * sim.Microsecond, true, "4490413ad7152b6e6f94e63e9e21fe4c817f283a9df2ce02e4698d7fbb65788b"},
	} {
		s, err := buildPoint(spec, soc.Oracles{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.RunNVDLAPhase(ctx, split.at); err != nil {
			t.Fatal(err)
		}
		if n := s.DRAM.AnsweredWrites(); split.answered && n == 0 {
			t.Errorf("no answered posted write queued at %d ps", split.at)
		}
		snap := mustSave(t, s)
		if got := fmt.Sprintf("%x", sha256.Sum256(snap)); got != split.sha256 {
			t.Errorf("checkpoint at %d ps: sha256 %s, pinned %s", split.at, got, split.sha256)
		}

		restored := soc.MustBuild(specConfig(spec))
		if _, err := restored.Restore(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
		done, remaining, err := restored.RunNVDLAPhase(ctx, spec.Limit)
		if err != nil || remaining != 0 || done != cold {
			t.Errorf("restored at %d ps: done at %d with %d left (%v); the cold run finished at %d", split.at, done, remaining, err, cold)
		}
	}
}
