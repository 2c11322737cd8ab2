// Package undocumented plants one export without a doc comment among
// declarations the documentation check must let pass.
package undocumented

// Documented has a doc comment.
func Documented() {}

func Undocumented() {}

func unexported() {}

// The doc comment of a block covers every name it declares.
const (
	First  = 1
	Second = 2
)

// Counter is documented; so are its exported methods, and a method on an
// unexported type is not part of the API.
type Counter struct{ n int }

// Add adds one.
func (c *Counter) Add() { c.n++ }

type hidden struct{}

func (hidden) Exported() {}
