// Package mem implements gem5rtl's main-memory substrate: an ideal 1-cycle
// memory (the paper's normalisation baseline) and event-driven DRAM
// controller models for the three technologies of Table 1 — DDR4-2400 (1/2/4
// channels), quad-channel GDDR5, and an 8-channel HBM stack. The controllers
// model per-channel read/write queues with back-pressure, banks with
// open-page row buffers, and a data bus that serialises bursts, yielding the
// bandwidth ceilings and queueing contention the paper's design-space
// exploration measures. The controllers model timing only; the bytes live in
// Storage.
package mem

// Storage is the system's sparse byte-addressable memory: the one place a
// simulated byte lives. The agents that own bytes — the cores' loads and
// stores, the RTLObject's DMA, program and trace preloads — read and write
// it directly; caches and memory controllers model timing only, and their
// packets carry no payload.
//
// A page is touched by its first write and is part of the store (and of its
// checkpoint) from then on, but it is backed by memory only once it holds a
// non-zero byte: a page that has only been written with zeros — the NVDLA's
// output regions — is a nil entry that reads as zeros.
type Storage struct {
	pageBits uint
	pages    map[uint64][]byte
}

// zeroPage is what an unbacked page holds.
var zeroPage [1 << 16]byte

// NewStorage creates an empty store with 64 KiB pages.
func NewStorage() *Storage {
	return &Storage{pageBits: 16, pages: map[uint64][]byte{}}
}

// Read copies len(buf) bytes at addr into buf; unwritten memory reads zero.
func (s *Storage) Read(addr uint64, buf []byte) {
	for n := 0; n < len(buf); {
		pn, off := s.split(addr + uint64(n))
		chunk := s.chunk(off, len(buf)-n)
		if p := s.pages[pn]; p == nil {
			clear(buf[n : n+chunk])
		} else {
			copy(buf[n:n+chunk], p[off:])
		}
		n += chunk
	}
}

// Write copies buf into memory at addr.
func (s *Storage) Write(addr uint64, buf []byte) {
	for n := 0; n < len(buf); {
		pn, off := s.split(addr + uint64(n))
		chunk := s.chunk(off, len(buf)-n)
		data := buf[n : n+chunk]
		p, touched := s.pages[pn]
		if p == nil && !allZero(data) {
			p = make([]byte, 1<<s.pageBits)
			s.pages[pn] = p
		} else if !touched {
			s.pages[pn] = nil
		}
		if p != nil {
			copy(p[off:], data)
		}
		n += chunk
	}
}

// split returns the page number and offset of addr.
func (s *Storage) split(addr uint64) (uint64, uint64) {
	return addr >> s.pageBits, addr & (1<<s.pageBits - 1)
}

// chunk is how many of n bytes from page offset off lie in that page.
func (s *Storage) chunk(off uint64, n int) int {
	if c := int(uint64(1)<<s.pageBits - off); c < n {
		return c
	}
	return n
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
