package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/conform"
)

// The script differential drives a calendar queue and the reference heap
// through one sequence of API calls (conform.Script) and requires them to be
// indistinguishable after every call: same dispatch log, same NextEventTick,
// Pending, Now, exit state, and the same checkpoint bytes. A script is a byte
// string of fixed-width action records, so the seeded test, the handcrafted
// bucket scenarios and FuzzCalendar all feed one interpreter.
//
// What makes it see a bucket, where TestCalendarMatchesReferenceHeap keeps its
// tickers on multiples of 500: offsets are drawn in classes aimed at the
// geometry — inside one bucket, a few buckets out, either side of the window
// in ticks, and at an exact bucket distance of calBuckets−1 or calBuckets from
// wherever inside its bucket now happens to be.

const (
	scriptEvents    = 8  // standing, component-owned events ev0..ev7
	scriptFuel      = 64 // callback side effects allowed per top-level action
	scriptRecordLen = 9  // op, index, offset class, offset value (4), rule kind, rule arg
	scriptWidth     = Tick(1) << calBucketBits
)

var (
	scriptPrios        = [scriptEvents]int{PriCPU, PriDefault, PriDefault, PriDefault, PriStats, PriDefault, 1, -1}
	scriptOneShotNames = [4]string{"os0", "os1", "os2", "os3"}
)

// Top-level operations (record byte 0, modulo numOps).
const (
	opSchedule       = iota // Schedule(ev[i], off) unless pending
	opReschedule            // Reschedule(ev[i], off)
	opDeschedule            // Deschedule(ev[i]) if pending
	opDescheduleNext        // Deschedule the standing event due first
	opOneShot               // ScheduleOneShot(name[i], off)
	opRunUntil              // RunUntil(off)
	opStep                  // Step() 1 + i%4 times
	opStopAfter             // SetStopAfter(off)
	opClearStop             // ClearStopAfter()
	opClearExit             // ClearExit()
	opOnFire                // install ev[i]'s callback rule
	opSave                  // save both, compare bytes, continue in restored fresh queues
	numOps
)

// Callback rules (record byte 7, modulo numFires): what a standing event does
// when it fires, after logging itself.
const (
	fireNone  = iota
	fireSelf  // Reschedule(self, off)
	fireChild // ScheduleOneShot(name[arg], off)
	fireMove  // Reschedule(ev[arg], off)
	fireDrop  // Deschedule(ev[arg]) if pending
	fireStop  // SetStopAfter(off)
	fireExit  // ExitSimLoop
	numFires
)

// Offset classes (record byte 2, modulo numOffs); see scriptOff.at.
const (
	offSameTick = iota
	offInBucket
	offFewBuckets
	offInWindow
	offWindowEdge
	offBucketEdge
	offFar
	offExact
	numOffs
)

// scriptOff is a time offset resolved against now at the moment it is used
// (callback rules resolve theirs when the event fires).
type scriptOff struct {
	class byte
	v     uint32
}

func (o scriptOff) at(now Tick) Tick {
	v := Tick(o.v)
	switch o.class % numOffs {
	case offInBucket: // this bucket or the next
		return now + v%(2*scriptWidth)
	case offFewBuckets:
		return now + v%(64*scriptWidth)
	case offInWindow:
		return now + v%CalendarWindow
	case offWindowEdge: // within two buckets of now+CalendarWindow, either side
		return now + CalendarWindow - 2*scriptWidth + v%(4*scriptWidth)
	case offBucketEdge: // bucket distance calBuckets-1 (v even) or calBuckets (v odd), any tick of that bucket
		b := now>>calBucketBits + calBuckets - 1 + v&1
		return b<<calBucketBits + (v>>1)&(scriptWidth-1)
	case offFar:
		return now + CalendarWindow + v%(4*CalendarWindow)
	case offExact:
		return now + v
	}
	return now // offSameTick
}

type fireRule struct {
	kind byte
	arg  int
	off  scriptOff
}

type scriptAction struct {
	op   byte
	i    int
	off  scriptOff
	rule fireRule
}

func decodeScript(data []byte) []scriptAction {
	var out []scriptAction
	for len(data) > 0 {
		var rec [scriptRecordLen]byte
		data = data[copy(rec[:], data):]
		off := scriptOff{rec[2], uint32(rec[3]) | uint32(rec[4])<<8 | uint32(rec[5])<<16 | uint32(rec[6])<<24}
		out = append(out, scriptAction{
			op: rec[0] % numOps, i: int(rec[1]), off: off,
			rule: fireRule{kind: rec[7] % numFires, arg: int(rec[8]), off: off},
		})
	}
	return out
}

func (a scriptAction) encode() []byte {
	return []byte{a.op, byte(a.i), a.off.class, byte(a.off.v), byte(a.off.v >> 8), byte(a.off.v >> 16), byte(a.off.v >> 24),
		a.rule.kind, byte(a.rule.arg)}
}

func (a scriptAction) String() string {
	return fmt.Sprintf("{op %d i %d off %d/%d rule %d/%d}", a.op, a.i, a.off.class%numOffs, a.off.v, a.rule.kind, a.rule.arg)
}

type dispatchRec struct {
	name string
	tick Tick
}

// scriptRig is one queue with its standing events and callback rules: one
// side of the script differential (a conform.Machine).
type scriptRig struct {
	newQ     func() *EventQueue
	q        *EventQueue
	ev       [scriptEvents]*Event
	onFire   [scriptEvents]fireRule
	fuel     int
	oneShots int // queue-owned one-shots still pending
	log      []dispatchRec
	logHash  uint64 // every dispatch of log, folded in order
}

type (
	scriptMachine = conform.Machine[scriptAction, scriptDigest]
	scriptResult  = conform.ScriptResult[scriptAction, scriptDigest]
)

func newScriptRig(newQ func() *EventQueue) *scriptRig {
	r := &scriptRig{newQ: newQ, q: newQ()}
	for i := range r.ev {
		r.ev[i] = NewEventPri(fmt.Sprintf("ev%d", i), scriptPrios[i], func() { r.fire(i) })
	}
	return r
}

func (r *scriptRig) record(name string) {
	d := dispatchRec{name, r.q.Now()}
	r.log = append(r.log, d)
	r.logHash = (r.logHash^nameRank(name))*1099511628211 ^ uint64(d.tick)
}

func (r *scriptRig) oneShot(n int, when Tick) {
	name := scriptOneShotNames[n%len(scriptOneShotNames)]
	r.oneShots++
	r.q.ScheduleOneShot(name, when, func() {
		r.oneShots--
		r.record(name)
	})
}

func (r *scriptRig) fire(i int) {
	now := r.q.Now()
	r.record(r.ev[i].name)
	rule := r.onFire[i]
	if rule.kind == fireNone || r.fuel == 0 {
		return
	}
	r.fuel--
	other := r.ev[rule.arg%scriptEvents]
	switch rule.kind {
	case fireSelf:
		r.q.Reschedule(r.ev[i], rule.off.at(now))
	case fireChild:
		r.oneShot(rule.arg, rule.off.at(now))
	case fireMove:
		r.q.Reschedule(other, rule.off.at(now))
	case fireDrop:
		if other.Scheduled() {
			r.q.Deschedule(other)
		}
	case fireStop:
		r.q.SetStopAfter(rule.off.at(now))
	case fireExit:
		r.q.ExitSimLoop("script")
	}
}

// Apply performs one action; opSave is the driver's (isSave).
func (r *scriptRig) Apply(a scriptAction) {
	r.fuel = scriptFuel
	now := r.q.Now()
	e := r.ev[a.i%scriptEvents]
	switch a.op {
	case opSchedule:
		if !e.Scheduled() {
			r.q.Schedule(e, a.off.at(now))
		}
	case opReschedule:
		r.q.Reschedule(e, a.off.at(now))
	case opDeschedule:
		if e.Scheduled() {
			r.q.Deschedule(e)
		}
	case opDescheduleNext:
		var first *Event
		for _, c := range r.ev {
			if c.Scheduled() && (first == nil || c.When() < first.When()) {
				first = c
			}
		}
		if first != nil {
			r.q.Deschedule(first)
		}
	case opOneShot:
		r.oneShot(a.i, a.off.at(now))
	case opRunUntil:
		r.q.RunUntil(a.off.at(now))
	case opStep:
		for n := 0; n <= a.i%4; n++ {
			r.q.Step()
		}
	case opStopAfter:
		r.q.SetStopAfter(a.off.at(now))
	case opClearStop:
		r.q.ClearStopAfter()
	case opClearExit:
		r.q.ClearExit()
	case opOnFire:
		r.onFire[a.i%scriptEvents] = a.rule
	}
}

func isSaveAction(a scriptAction) bool { return a.op == opSave }

// scriptDigest is everything the queue shows a caller.
type scriptDigest struct {
	Dispatches    int
	Log           uint64
	Next          Tick
	HasNext       bool
	Pending       int
	Empty         bool
	Now           Tick
	Dispatched    uint64
	Stamp         Stamp
	Exit, Summary string
}

func (r *scriptRig) Digest() scriptDigest {
	d := scriptDigest{Dispatches: len(r.log), Log: r.logHash, Pending: r.q.Pending(), Empty: r.q.Empty(),
		Now: r.q.Now(), Dispatched: r.q.Dispatched(), Stamp: r.q.CurrentStamp(), Exit: r.q.ExitReason(),
		Summary: strings.Join(r.q.PendingSummaries(4), ";")}
	d.Next, d.HasNext = r.q.NextEventTick()
	return d
}

// standing is a queue's standing events as one checkpoint part.
type standing struct {
	q  *EventQueue
	ev []*Event
}

func (s standing) Checkpoint(cs *ckpt.Stream) error {
	for _, e := range s.ev {
		s.q.CheckpointEvent(cs, e)
	}
	return cs.Err()
}

// Save serialises the queue and every standing event's schedule.
func (r *scriptRig) Save(t testing.TB) []byte { return conform.Save(t, r.q, standing{r.q, r.ev[:]}) }

// Restore rebuilds the rig around a fresh queue, the way components
// re-materialise their events after a checkpoint restore. Queue-owned
// one-shots do not travel through a checkpoint: with one pending the script
// stays in this rig. The stop-after cap is not checkpointed either (runs
// re-arm it), so it is carried over.
func (r *scriptRig) Restore(t testing.TB, data []byte) scriptMachine {
	if r.oneShots > 0 {
		return nil
	}
	n := newScriptRig(r.newQ)
	n.onFire, n.log, n.logHash = r.onFire, r.log, r.logHash
	conform.Restore(t, data, n.q, standing{n.q, n.ev[:]})
	if at, ok := r.q.StopAfter(); ok {
		n.q.SetStopAfter(at)
	}
	return n
}

// runScript interprets data on a calendar queue and a reference queue in
// lockstep and fails t at the first observable difference.
func runScript(t testing.TB, data []byte) scriptResult {
	t.Helper()
	return conform.Script[scriptAction, scriptDigest](t, newScriptRig(NewEventQueue), newScriptRig(NewReferenceEventQueue),
		decodeScript(data), isSaveAction)
}

// rigs returns the calendar and reference rigs a script ended in.
func rigs(res scriptResult) (cal, ref *scriptRig) {
	return res.Subject.(*scriptRig), res.Oracle.(*scriptRig)
}

// scriptBuilder assembles handcrafted scripts.
type scriptBuilder struct{ data []byte }

func (b *scriptBuilder) add(op byte, i int, off scriptOff) *scriptBuilder {
	b.data = append(b.data, scriptAction{op: op, i: i, off: off}.encode()...)
	return b
}

func (b *scriptBuilder) onFire(i int, kind byte, arg int, off scriptOff) *scriptBuilder {
	b.data = append(b.data, scriptAction{op: opOnFire, i: i, off: off, rule: fireRule{kind: kind, arg: arg}}.encode()...)
	return b
}

func exact(d Tick) scriptOff { return scriptOff{offExact, uint32(d)} }

// bucketEdge is an offset at bucket distance calBuckets-1 (lap false) or
// calBuckets (lap true) from now's bucket, pos ticks into that bucket.
func bucketEdge(lap bool, pos Tick) scriptOff {
	v := uint32(pos) << 1
	if lap {
		v |= 1
	}
	return scriptOff{offBucketEdge, v}
}

// rankedScriptNames returns the indices of the PriDefault standing events
// ev1, ev2, ev3, ev5 and of the one-shot names in ascending name-rank order.
func rankedScriptNames() (evs []int, oneShots []int) {
	evs = []int{1, 2, 3, 5}
	sort.Slice(evs, func(i, j int) bool {
		return nameRank(fmt.Sprintf("ev%d", evs[i])) < nameRank(fmt.Sprintf("ev%d", evs[j]))
	})
	oneShots = []int{0, 1, 2, 3}
	sort.Slice(oneShots, func(i, j int) bool {
		return nameRank(scriptOneShotNames[oneShots[i]]) < nameRank(scriptOneShotNames[oneShots[j]])
	})
	return evs, oneShots
}

// bucketScenario is one handcrafted script with the direct assertions that
// prove it reached the structure it was written for.
type bucketScenario struct {
	name   string
	script []byte
	check  func(t *testing.T, res scriptResult)
}

// bucketScenarios are the edges a bucketed ring adds to a one-tick ring. Each
// starts at tick 0 on empty queues; W is the bucket width, mid a tick in the
// middle of a bucket.
func bucketScenarios() []bucketScenario {
	const W = scriptWidth
	mid := W/2 + 3
	wantOrder := func(want ...string) func(*testing.T, scriptResult) {
		return func(t *testing.T, res scriptResult) {
			var got []string
			cal, _ := rigs(res)
			for _, d := range cal.log {
				got = append(got, d.name)
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("dispatch order %v, want %v", got, want)
			}
		}
	}
	wantFar := func(n uint64) func(*testing.T, scriptResult) {
		return func(t *testing.T, res scriptResult) {
			if cal, _ := rigs(res); cal.q.FarScheduled() != n {
				t.Errorf("calendar queue scheduled %d events into the spill heap, want %d", cal.q.FarScheduled(), n)
			}
		}
	}
	both := func(fs ...func(*testing.T, scriptResult)) func(*testing.T, scriptResult) {
		return func(t *testing.T, res scriptResult) {
			for _, f := range fs {
				f(t, res)
			}
		}
	}
	evs, oneShots := rankedScriptNames()
	lowEv, highEv := evs[0], evs[len(evs)-1]
	lowShot, midShot := oneShots[0], oneShots[1]

	var out []bucketScenario
	add := func(name string, b *scriptBuilder, check func(*testing.T, scriptResult)) {
		out = append(out, bucketScenario{name, b.data, check})
	}

	// Four ticks of one bucket inserted latest first, checked between steps.
	b := &scriptBuilder{}
	base := 10 * W
	b.add(opSchedule, 1, exact(base+W-1)).add(opSchedule, 2, exact(base+W/2)).
		add(opSchedule, 3, exact(base+1)).add(opSchedule, 5, exact(base)).
		add(opStep, 0, scriptOff{}).add(opStep, 0, scriptOff{}).add(opRunUntil, 0, exact(20*W))
	add("descending ticks in one bucket", b, both(wantOrder("ev5", "ev3", "ev2", "ev1"), wantFar(0)))

	// With now mid-bucket, the last tick at bucket distance calBuckets-1 is a
	// ring event and the first tick at distance calBuckets — fewer than
	// CalendarWindow ticks away — is not: filed by tick distance it would
	// share now's own slot and dispatch a lap early.
	b = &scriptBuilder{}
	b.add(opRunUntil, 0, exact(mid)).
		add(opSchedule, 1, bucketEdge(true, 0)).add(opSchedule, 2, bucketEdge(false, W-1)).
		add(opSchedule, 3, exact(1)).add(opSchedule, 5, exact(W)).
		add(opStep, 0, scriptOff{}).add(opStep, 0, scriptOff{}).add(opStep, 0, scriptOff{}).add(opStep, 0, scriptOff{})
	add("bucket distance calBuckets-1 and calBuckets from mid-bucket", b, both(wantOrder("ev3", "ev5", "ev2", "ev1"), wantFar(1)))

	// The same edge reached from inside a callback.
	b = &scriptBuilder{}
	b.add(opRunUntil, 0, exact(mid)).
		onFire(3, fireMove, 1, bucketEdge(true, 1)).
		add(opSchedule, 3, exact(2)).add(opSchedule, 2, bucketEdge(false, 0)).
		add(opRunUntil, 0, exact(3)).
		add(opSchedule, 5, bucketEdge(false, W-1)).
		add(opRunUntil, 0, exact(2*CalendarWindow))
	add("callback schedules one lap ahead", b, both(wantOrder("ev3", "ev2", "ev5", "ev1"), wantFar(1)))

	// A spill-heap event coming due in a bucket that already holds an earlier
	// tick, a later tick and same-tick events on both sides of its priority.
	b = &scriptBuilder{}
	T := 3*CalendarWindow + mid
	half := CalendarWindow / 2
	b.add(opSchedule, 2, exact(T)) // far
	b.add(opRunUntil, 0, exact(T-half))
	b.add(opSchedule, 1, exact(half-3))    // T-3, same bucket
	b.add(opSchedule, 3, exact(half+2))    // T+2, same bucket
	b.add(opSchedule, 0, exact(half))      // T, PriCPU: before ev2
	b.add(opSchedule, 4, exact(half))      // T, PriStats: after ev2
	b.add(opOneShot, midShot, exact(half)) // T, PriDefault, ordered against ev2 by rank
	b.add(opRunUntil, 0, exact(half-3))
	b.add(opStep, 0, scriptOff{}).add(opStep, 0, scriptOff{}).add(opStep, 0, scriptOff{}).
		add(opRunUntil, 0, exact(CalendarWindow))
	add("spill-heap event due between ring events of its bucket", b, wantFar(1))

	// Descheduling the event the earliest-bucket cache points at while its
	// bucket stays occupied, then descheduling the new head too.
	b = &scriptBuilder{}
	b.add(opSchedule, 1, exact(base+5)).add(opSchedule, 2, exact(base+9)).add(opSchedule, 3, exact(base+3*W)).
		add(opDescheduleNext, 0, scriptOff{}).
		add(opDescheduleNext, 0, scriptOff{}).
		add(opSchedule, 5, exact(base+W+1)).
		add(opRunUntil, 0, exact(base+4*W))
	add("deschedule the cached earliest event", b, wantOrder("ev5", "ev3"))

	// A callback moves a later event of its own bucket ahead of another, and a
	// second callback moves one to its own tick.
	b = &scriptBuilder{}
	b.onFire(1, fireMove, 2, exact(1)).onFire(2, fireMove, 5, exact(0)).
		add(opSchedule, 1, exact(base+2)).add(opSchedule, 2, exact(base+20)).
		add(opSchedule, 3, exact(base+10)).add(opSchedule, 5, exact(base+30)).
		add(opRunUntil, 0, exact(base+W))
	add("reschedule earlier within the bucket from a callback", b, wantOrder("ev1", "ev2", "ev5", "ev3"))

	// Same-tick children. The first event of the tick schedules the lowest-
	// ranked name of its priority while higher-ranked ones are pending: the
	// child runs before them although it was inserted last. The highest-ranked
	// one then schedules a one-shot under a name ranked below its own: it runs
	// next, behind its parent and ahead of the lower priorities.
	b = &scriptBuilder{}
	b.onFire(0, fireMove, lowEv, exact(0)).onFire(highEv, fireChild, lowShot, exact(0))
	for _, i := range evs[1:] {
		b.add(opSchedule, i, exact(base+7))
	}
	b.add(opSchedule, 0, exact(base+7)).add(opSchedule, 4, exact(base+7)).add(opSchedule, 6, exact(base+7)).
		add(opRunUntil, 0, exact(base+W))
	want := []string{"ev0"}
	for _, i := range evs {
		want = append(want, fmt.Sprintf("ev%d", i))
	}
	add("same-tick children across ranks", b, wantOrder(append(want, scriptOneShotNames[lowShot], "ev6", "ev4")...))

	// Stop-after inside a bucket: the rest of the bucket stays pending, time
	// stops at the cap, and a checkpoint taken there continues identically.
	b = &scriptBuilder{}
	b.add(opSchedule, 1, exact(base+1)).add(opSchedule, 2, exact(base+5)).add(opSchedule, 3, exact(base+6)).
		add(opStopAfter, 0, exact(base+5)).
		add(opRunUntil, 0, exact(base+2*W)).
		add(opSave, 0, scriptOff{}).
		add(opClearStop, 0, scriptOff{}).
		add(opRunUntil, 0, exact(2*W))
	add("stop-after and checkpoint inside a bucket", b, func(t *testing.T, res scriptResult) {
		wantOrder("ev1", "ev2", "ev3")(t, res)
		if res.Restores != 1 {
			t.Errorf("%d restores, want 1", res.Restores)
		}
	})

	// An event one full lap of buckets behind a wrapped bitmap word: now sits
	// in the last bucket of the ring, the next event in the first.
	b = &scriptBuilder{}
	b.add(opRunUntil, 0, exact(CalendarWindow-W+mid)).
		add(opSchedule, 1, exact(W)).add(opSchedule, 2, bucketEdge(false, 0)).add(opSchedule, 3, exact(0)).
		add(opStep, 0, scriptOff{}).
		add(opRunUntil, 0, exact(2*CalendarWindow))
	add("scan wraps the ring", b, both(wantOrder("ev3", "ev1", "ev2"), wantFar(0)))

	return out
}

// TestCalendarBucketScenarios runs the handcrafted bucket edges through the
// differential harness and checks each reached the structure it names.
func TestCalendarBucketScenarios(t *testing.T) {
	for _, sc := range bucketScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			res := runScript(t, sc.script)
			if sc.check != nil {
				sc.check(t, res)
			}
		})
	}
}

// genScript draws a script of n actions from rng, weighted
// towards a populated queue: more scheduling than running, short runs more
// often than long ones.
func genScript(rng *conform.RNG, n int) []byte {
	ops := []byte{
		opSchedule, opSchedule, opSchedule, opSchedule, opReschedule, opReschedule, opReschedule,
		opDeschedule, opDescheduleNext, opDescheduleNext, opOneShot, opOneShot,
		opRunUntil, opRunUntil, opStep, opStep, opStep, opStopAfter, opClearStop, opClearExit,
		opOnFire, opOnFire, opOnFire, opSave,
	}
	schedOffs := []byte{offSameTick, offInBucket, offInBucket, offInBucket, offFewBuckets, offFewBuckets,
		offInWindow, offWindowEdge, offBucketEdge, offBucketEdge, offFar}
	runOffs := []byte{offInBucket, offInBucket, offFewBuckets, offFewBuckets, offFewBuckets, offInWindow, offWindowEdge, offFar}
	var data []byte
	for i := 0; i < n; i++ {
		x := rng.Uint64()
		a := scriptAction{op: ops[x%uint64(len(ops))], i: int(x >> 8 & 0xff)}
		offs := schedOffs
		if a.op == opRunUntil || a.op == opStopAfter {
			offs = runOffs
		}
		a.off = scriptOff{offs[x>>16%uint64(len(offs))], uint32(x >> 32)}
		a.rule = fireRule{kind: byte(x >> 24 % numFires), arg: int(x >> 28 & 0xf)}
		if a.rule.kind == fireExit && x>>40&3 != 0 {
			a.rule.kind = fireChild // an exit latch silences the rest of a script until opClearExit: keep it rare
		}
		data = append(data, a.encode()...)
	}
	return data
}

// TestCalendarScripts is the seeded differential: 150 scripts of 200 actions
// from one splitmix64 stream, calendar queue against reference heap, compared
// after every action (runScript). The totals it requires keep the generator
// honest: the scripts must dispatch, spill, restore and leave events pending.
func TestCalendarScripts(t *testing.T) {
	rng := conform.NewRNG(0x5eed)
	var dispatched, restores int
	var far uint64
	for i := 0; i < 150; i++ {
		script := genScript(rng, 200)
		res := func() scriptResult {
			defer func() {
				if t.Failed() {
					t.Logf("script %d: %x", i, script)
				}
			}()
			return runScript(t, script)
		}()
		cal, ref := rigs(res)
		dispatched += len(ref.log)
		restores += res.Restores
		far += cal.q.FarScheduled()
	}
	t.Logf("%d events dispatched, %d scheduled into the spill heap, %d restores into fresh queues", dispatched, far, restores)
	if dispatched < 5000 || far < 500 || restores < 100 {
		t.Errorf("generator went quiet: %d dispatched (want ≥ 5000), %d spilled (≥ 500), %d restores (≥ 100)", dispatched, far, restores)
	}
}

// FuzzCalendar feeds the script interpreter from fuzz bytes, seeded with the
// handcrafted bucket scenarios and a few generated scripts.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{})
	for _, sc := range bucketScenarios() {
		f.Add(sc.script)
	}
	rng := conform.NewRNG(0xf022)
	for i := 0; i < 4; i++ {
		f.Add(genScript(rng, 60))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400*scriptRecordLen {
			t.Skip()
		}
		runScript(t, data)
	})
}
