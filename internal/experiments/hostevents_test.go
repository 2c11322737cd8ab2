package experiments

import (
	"context"
	"testing"

	"gem5rtl/internal/obs"
)

// TestEveryRunFeedsHostEvents: every run a harness makes goes through one
// lifecycle, so each one — Figure 5, a Table 2 cell and both fault
// campaigns' reference runs (a zero-fault campaign makes only that run) —
// adds exactly its queue's dispatch count to the host-wide event counter that
// -host-metrics reports. The test does not call t.Parallel, so no other run
// in the package moves the counter while it reads it.
func TestEveryRunFeedsHostEvents(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(r Runner) error
	}{
		{"Figure 5", func(r Runner) error {
			_, err := r.Figure5(ctx, Fig5Params{N: 20, SleepUs: 10, IntervalCycles: 5000})
			return err
		}},
		{"Table 2 cell", func(r Runner) error {
			_, err := r.runSortOnce(ctx, 20, 10, true, false)
			return err
		}},
		{"NVDLA campaign reference", func(r Runner) error {
			_, err := r.FaultCampaign(ctx, FaultCampaign{Spec: campSpec()})
			return err
		}},
		{"PMU campaign reference", func(r Runner) error {
			_, err := r.PMUFaultCampaign(ctx, PMUCampaign{})
			return err
		}},
	} {
		var dispatched uint64
		r := Runner{Workers: 1, Options: []Option{withEvents(&dispatched)}}
		before := obs.HostEvents()
		if err := tc.run(r); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := obs.HostEvents() - before; dispatched == 0 || got != dispatched {
			t.Errorf("%s: host events advanced by %d, its queue dispatched %d", tc.name, got, dispatched)
		}
	}
}
