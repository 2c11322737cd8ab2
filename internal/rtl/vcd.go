package rtl

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
)

// VCDWriter emits IEEE 1364 value-change-dump waveforms for a Model, the
// debugging feature the paper highlights (and whose cost dominates Table 2's
// gem5+PMU+waveform rows). Tracing can be enabled and disabled dynamically
// during simulation, mirroring Verilator's runtime trace control.
type VCDWriter struct {
	w        *bufio.Writer
	enabled  bool
	ids      []string // signal index -> VCD identifier
	last     []uint64
	period   uint64 // timestamp units per cycle
	headerOK bool
	changes  uint64
	// buf collects the records of the dump under way and is reused by the
	// next: timestamps and values are formatted straight into it, so a
	// dump allocates nothing.
	buf []byte
	// cur, order and steps are a closed-form stretch's scratch: each planned
	// signal's value on the cycle being written, the planned signals in
	// index order, and those that step through the rest of a run.
	cur   []uint64
	order []SigID
	steps []vcdStep
}

// AttachVCD connects a VCD writer to the model. period is the number of VCD
// time units (1 ns each) per clock cycle. Tracing starts enabled.
func (m *Model) AttachVCD(w io.Writer, period uint64) *VCDWriter {
	if period == 0 {
		period = 1
	}
	v := &VCDWriter{
		w:       bufio.NewWriter(w),
		enabled: true,
		ids:     make([]string, len(m.c.Signals)),
		last:    make([]uint64, len(m.c.Signals)),
		cur:     make([]uint64, len(m.c.Signals)),
		period:  period,
	}
	for i := range m.c.Signals {
		v.ids[i] = vcdID(i)
	}
	m.vcd = v
	v.writeHeader(m)
	return v
}

// VCD returns the waveform writer attached to the model, nil if none.
func (m *Model) VCD() *VCDWriter { return m.vcd }

// SetEnabled toggles waveform dumping at runtime.
func (v *VCDWriter) SetEnabled(on bool) { v.enabled = on }

// Enabled reports whether dumping is active.
func (v *VCDWriter) Enabled() bool { return v.enabled }

// Changes returns the number of value records written (for tests/stats).
func (v *VCDWriter) Changes() uint64 { return v.changes }

// Flush flushes buffered output; call at end of simulation.
func (v *VCDWriter) Flush() error { return v.w.Flush() }

// Resync realigns the writer with the model after an out-of-band state change
// (checkpoint restore). The writer's change-detection snapshot would otherwise
// still describe the pre-restore values, so the first post-restore dump would
// emit a wrong delta. Resync dumps every signal's current value at the
// restored cycle's timestamp and refreshes the snapshot. Note the waveform
// FILE is not part of a checkpoint: a restored run's trace begins at the
// restore point rather than replaying history.
func (v *VCDWriter) Resync(m *Model) {
	v.appendTime(m.cycle)
	v.appendAll(m)
	v.writeBuf()
}

// vcdID generates the printable short identifiers VCD uses ("!", "\"", ...).
func vcdID(i int) string {
	const base = 94 // printable ASCII 33..126
	s := ""
	for {
		s += string(rune(33 + i%base))
		i /= base
		if i == 0 {
			break
		}
		i--
	}
	return s
}

func (v *VCDWriter) writeHeader(m *Model) {
	fmt.Fprintf(v.w, "$date gem5rtl $end\n$version gem5rtl rtl engine $end\n$timescale 1ns $end\n")
	fmt.Fprintf(v.w, "$scope module %s $end\n", m.c.Name)
	for i, s := range m.c.Signals {
		kind := "wire"
		if s.Kind == SigReg {
			kind = "reg"
		}
		if s.Width == 1 {
			fmt.Fprintf(v.w, "$var %s 1 %s %s $end\n", kind, v.ids[i], s.Name)
		} else {
			fmt.Fprintf(v.w, "$var %s %d %s %s [%d:0] $end\n", kind, s.Width, v.ids[i], s.Name, s.Width-1)
		}
	}
	fmt.Fprintf(v.w, "$upscope $end\n$enddefinitions $end\n$dumpvars\n")
	v.appendAll(m)
	v.writeBuf()
	fmt.Fprintf(v.w, "$end\n#0\n")
	v.headerOK = true
}

// appendTime starts a dump's records with the cycle's timestamp line.
func (v *VCDWriter) appendTime(cycle uint64) {
	v.buf = append(v.buf, '#')
	v.buf = strconv.AppendUint(v.buf, cycle*v.period, 10)
	v.buf = append(v.buf, '\n')
}

// appendValue adds one value record: "0!" for a scalar, "b1010 !" for a
// vector.
func (v *VCDWriter) appendValue(width int, val uint64, id string) {
	if width == 1 {
		v.buf = append(v.buf, '0'+byte(val&1))
	} else {
		v.buf = append(v.buf, 'b')
		v.buf = appendBin(v.buf, val)
		v.buf = append(v.buf, ' ')
	}
	v.buf = append(v.buf, id...)
	v.buf = append(v.buf, '\n')
	v.changes++
}

// binDigits holds each byte value's eight binary digits, most significant
// first.
var binDigits = func() (t [256][8]byte) {
	for b := range t {
		for i := range t[b] {
			t[b][i] = '0' + byte(b>>(7-i)&1)
		}
	}
	return t
}()

// appendBin appends x in binary without leading zeros ("0" for zero), the
// digits strconv.AppendUint(dst, x, 2) gives, a byte of digits at a time.
func appendBin(dst []byte, x uint64) []byte {
	if x == 0 {
		return append(dst, '0')
	}
	n := bits.Len64(x)
	top := (n - 1) / 8
	dst = append(dst, binDigits[byte(x>>(8*top))][8*top+8-n:]...)
	for i := top - 1; i >= 0; i-- {
		dst = append(dst, binDigits[byte(x>>(8*i))][:]...)
	}
	return dst
}

// appendAll adds every signal's current value and refreshes the snapshot.
func (v *VCDWriter) appendAll(m *Model) {
	for i := range m.c.Signals {
		v.appendValue(m.c.Signals[i].Width, m.vals[i], v.ids[i])
		v.last[i] = m.vals[i]
	}
}

// writeBuf hands the collected records to the buffered sink. A write error
// is sticky in the bufio.Writer and surfaces at Flush.
func (v *VCDWriter) writeBuf() {
	v.w.Write(v.buf)
	v.buf = v.buf[:0]
}

// dump writes changed signals at the current cycle's timestamp: those of the
// backend's change set whose value differs from the last record. It clears
// the set.
func (v *VCDWriter) dump(m *Model) {
	stamped := false
	set := m.backend.Changed()
	for w := range set {
		for ; set[w] != 0; set[w] &= set[w] - 1 {
			i := w<<6 + bits.TrailingZeros64(set[w])
			if m.vals[i] == v.last[i] {
				continue
			}
			if !stamped {
				v.appendTime(m.cycle)
				stamped = true
			}
			v.appendValue(m.c.Signals[i].Width, m.vals[i], v.ids[i])
			v.last[i] = m.vals[i]
		}
	}
	if stamped {
		v.writeBuf()
	}
}

// synced reports whether the records written so far end on the values the
// model holds. A closed-form stretch records only what it moves, so it may
// start only from a model the writer is in step with: not after an input
// poke or an Eval the next Tick's dump would have recorded. Bits of the
// change set whose signals hold their last record are cleared on the way.
func (v *VCDWriter) synced(m *Model) bool {
	set := m.backend.Changed()
	for w := range set {
		for ; set[w] != 0; set[w] &= set[w] - 1 {
			if i := w<<6 + bits.TrailingZeros64(set[w]); m.vals[i] != v.last[i] {
				return false
			}
		}
	}
	return true
}

// stretch writes the records of the next n cycles, a closed-form stretch
// whose moving signals plan lists and whose varying input log records: on
// each cycle, the values of the plan computed in its order, then, in
// signal-index order, every one that differs from its last record, after the
// timestamp — exactly what n dumps would write. Signals the plan does not
// list hold what the writer last recorded (Model.Quiet saw to that). The
// records leave in blocks, so a long stretch does not grow the buffer.
//
// The log's runs shorten the work: through a run the input holds, and from
// a run's second cycle on so do the pipelined registers, so from its third
// every planned signal steps by what it stepped on the second. There only
// the signals that step are computed, and written without a compare.
func (v *VCDWriter) stretch(m *Model, n uint64, plan []Move, log *Log) {
	if len(plan) == 0 {
		return
	}
	cur := v.cur
	v.order = v.order[:0]
	for i := range plan {
		s := plan[i].Sig
		cur[s] = m.vals[s]
		v.order = append(v.order, s)
	}
	slices.Sort(v.order)
	vr := m.vary
	cur[vr.In] = m.vals[vr.In]
	for j, run := uint64(1), 0; j <= n; run++ {
		left := n + 1 - j
		if vr.Bits != 0 {
			left = log.lens[run]
			cur[vr.In] = cur[vr.In]&^vr.Bits | log.vals[run]&vr.Bits
		}
		for k := range min(left, 2) {
			v.compute(plan)
			if k == 1 && left > 2 {
				v.steps = v.steps[:0]
				for i := range plan {
					mv := &plan[i]
					if d := (cur[mv.Sig] - v.last[mv.Sig]) & mv.Mask; d != 0 {
						v.steps = append(v.steps, vcdStep{mv.Sig, d, mv.Mask})
					}
				}
				slices.SortFunc(v.steps, func(a, b vcdStep) int { return int(a.sig) - int(b.sig) })
			}
			v.appendChanged(m, m.cycle+j)
			j++
		}
		if left <= 2 {
			continue
		}
		if len(v.steps) == 0 {
			j += left - 2
			continue
		}
		for range left - 2 {
			v.appendTime(m.cycle + j)
			for _, st := range v.steps {
				x := (cur[st.sig] + st.d) & st.mask
				cur[st.sig] = x
				v.appendValue(m.c.Signals[st.sig].Width, x, v.ids[st.sig])
				v.last[st.sig] = x
			}
			if len(v.buf) >= 4096 {
				v.writeBuf()
			}
			j++
		}
	}
	v.writeBuf()
}

// vcdStep is a planned signal that steps by d every cycle, mod mask + 1.
type vcdStep struct {
	sig     SigID
	d, mask uint64
}

// compute takes the planned signals one cycle on, in the plan's order.
func (v *VCDWriter) compute(plan []Move) {
	cur := v.cur
	for i := range plan {
		mv := &plan[i]
		switch mv.Kind {
		case MoveCounted:
			x := cur[mv.Sig]
			for _, t := range mv.Terms {
				x += cur[t.Sig] >> t.Bit & 1
			}
			cur[mv.Sig] = x & mv.Mask
		case MovePipelined, MoveVarying:
			cur[mv.Sig] = mv.Base | cur[mv.Src]>>mv.Sh&mv.Step
		case MoveCopy:
			cur[mv.Sig] = cur[mv.Src] & mv.Mask
		case MoveAffine:
			cur[mv.Sig] = (cur[mv.Sig] + mv.Step) & mv.Mask
		}
	}
}

// appendChanged adds the records of the planned signals whose value differs
// from their last record, after the cycle's timestamp.
func (v *VCDWriter) appendChanged(m *Model, cycle uint64) {
	stamped := false
	for _, s := range v.order {
		if v.cur[s] == v.last[s] {
			continue
		}
		if !stamped {
			v.appendTime(cycle)
			stamped = true
		}
		v.appendValue(m.c.Signals[s].Width, v.cur[s], v.ids[s])
		v.last[s] = v.cur[s]
	}
	if len(v.buf) >= 4096 {
		v.writeBuf()
	}
}
