package experiments

import (
	"testing"

	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
)

// offerCounter counts the requests offered on a link. It passes everything.
type offerCounter struct{ offers uint64 }

func (c *offerCounter) TapReq(*port.Packet) port.TapAction  { c.offers++; return port.TapPass }
func (c *offerCounter) TapResp(*port.Packet) port.TapAction { return port.TapPass }

// TestContendedDRAMOffersTrackAccepts measures the back-pressure protocol
// where it is busiest: four NVDLAs with 240 requests in flight each on one
// DDR4 channel. With the controller's admission classes declared, the
// crossbar's request queue offers the controller a small multiple of what it
// accepts; with the declaration withdrawn the same queue offers every waiting
// packet on every freed slot — hundreds of offers per accept — and the run
// ends on the same tick having accepted the same requests, the tick that
// bench/golden.json records for this point.
//
// The counter sits on the link as a tap. port.Interpose withdraws the
// declaration (a tap may change what is accepted; this one does not), so the
// classified run puts the controller's own declaration back afterwards.
func TestContendedDRAMOffersTrackAccepts(t *testing.T) {
	const goldenTicks = sim.Tick(21357000) // bench/golden.json, "sanity3 n=4 DDR4-1ch inflight=240 scale=32"
	spec := DSEParams{Scale: 32, Limit: 4 * sim.Second}.Spec("sanity3", 4, "DDR4-1ch", 240)

	run := func(classified bool) (offers, accepts uint64, done sim.Tick) {
		t.Helper()
		s, err := buildPoint(spec, soc.Oracles{})
		if err != nil {
			t.Fatal(err)
		}
		link := s.MemXbar.DownPort(0)
		n, classOf := link.Peer().AdmissionClasses()
		if n != 2 || classOf == nil {
			t.Fatalf("DDR4-1ch declares %d admission classes, want 2 (read, write)", n)
		}
		tap := &offerCounter{}
		port.Interpose(link, tap)
		if classified {
			link.Peer().DeclareAdmissionClasses(n, classOf)
		}
		done, err = s.RunUntilNVDLAsDone(spec.Limit)
		if err != nil {
			t.Fatal(err)
		}
		st := s.DRAM.Stats()
		return tap.offers, st.Reads + st.Writes, done
	}

	offers, accepts, done := run(true)
	allOffers, allAccepts, allDone := run(false)
	t.Logf("classified: %d offers for %d accepts (%.2f per accept); offering everything: %d offers (%.0f per accept)",
		offers, accepts, float64(offers)/float64(accepts), allOffers, float64(allOffers)/float64(allAccepts))
	if done != goldenTicks || allDone != goldenTicks {
		t.Errorf("final tick %d classified, %d offering everything, golden %d", done, allDone, goldenTicks)
	}
	if accepts != allAccepts {
		t.Errorf("accepted %d requests classified, %d offering everything", accepts, allAccepts)
	}
	if offers > 3*accepts {
		t.Errorf("%d offers for %d accepts: more than 3 per accept with admission classes declared", offers, accepts)
	}
	if allOffers < 100*allAccepts {
		t.Errorf("offering everything made only %d offers for %d accepts; the point no longer contends", allOffers, allAccepts)
	}
}
