package ckpt

// Stream is one checkpoint pass, saving or restoring. Its field methods take
// a pointer: saving, they write the value it points at; restoring, they read
// one into it. A component's Checkpoint method therefore lists its fields
// once, and the two directions cannot visit them in different orders. Code
// that runs in one direction only — canonicalising or sorting on save,
// validating on restore — asks Restoring. Errors are sticky, as in Writer
// and Reader.
type Stream struct {
	w *Writer
	r *Reader
}

// Saving returns a stream that writes to w.
func Saving(w *Writer) *Stream { return &Stream{w: w} }

// Restoring returns a stream that reads from r.
func Restoring(r *Reader) *Stream { return &Stream{r: r} }

// Restoring reports whether the stream reads.
func (s *Stream) Restoring() bool { return s.r != nil }

// Err returns the first error encountered, if any.
func (s *Stream) Err() error {
	if s.r != nil {
		return s.r.Err()
	}
	return s.w.Err()
}

// Fail latches err (if the stream has not already failed).
func (s *Stream) Fail(err error) {
	if s.r != nil {
		s.r.Fail(err)
	} else {
		s.w.Fail(err)
	}
}

// U64 saves or restores a uint64.
func (s *Stream) U64(v *uint64) {
	if s.r != nil {
		*v = s.r.U64()
	} else {
		s.w.U64(*v)
	}
}

// U32 saves or restores a uint32.
func (s *Stream) U32(v *uint32) {
	if s.r != nil {
		*v = s.r.U32()
	} else {
		s.w.U32(*v)
	}
}

// U8 saves or restores a byte.
func (s *Stream) U8(v *uint8) {
	if s.r != nil {
		*v = s.r.U8()
	} else {
		s.w.U8(*v)
	}
}

// I64 saves or restores an int64.
func (s *Stream) I64(v *int64) {
	if s.r != nil {
		*v = s.r.I64()
	} else {
		s.w.I64(*v)
	}
}

// Int saves or restores an int, as an int64.
func (s *Stream) Int(v *int) {
	if s.r != nil {
		*v = s.r.Int()
	} else {
		s.w.Int(*v)
	}
}

// Len saves an int like Int; restoring, it refuses a negative or
// implausibly large value (Reader.Len).
func (s *Stream) Len(n *int) {
	if s.r != nil {
		*n = s.r.Len()
	} else {
		s.w.Int(*n)
	}
}

// Bool saves or restores a boolean.
func (s *Stream) Bool(v *bool) {
	if s.r != nil {
		*v = s.r.Bool()
	} else {
		s.w.Bool(*v)
	}
}

// Bytes saves or restores a byte slice; nil stays nil.
func (s *Stream) Bytes(b *[]byte) {
	if s.r != nil {
		*b = s.r.Bytes()
	} else {
		s.w.Bytes(*b)
	}
}

// String saves or restores a string.
func (s *Stream) String(v *string) {
	if s.r != nil {
		*v = s.r.String()
	} else {
		s.w.String(*v)
	}
}

// Section writes a named marker, or reads one and checks its name.
func (s *Stream) Section(name string) {
	if s.r != nil {
		s.r.Section(name)
	} else {
		s.w.Section(name)
	}
}

// Slice saves the length of *xs and then each element with each. Restoring,
// it reads the length and appends the elements each fills while the stream
// is sound, so a length word from the stream never sizes an allocation.
func Slice[T any](s *Stream, xs *[]T, each func(*Stream, *T)) {
	n := len(*xs)
	s.Len(&n)
	if s.r == nil {
		for i := range *xs {
			each(s, &(*xs)[i])
		}
		return
	}
	*xs = (*xs)[:0]
	for i := 0; i < n && s.Err() == nil; i++ {
		var x T
		each(s, &x)
		*xs = append(*xs, x)
	}
}
