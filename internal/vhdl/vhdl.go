// Package vhdl implements gem5rtl's VHDL toolflow, playing the role GHDL
// plays in the paper — the first time (per the paper) a VHDL flow is
// interfaced with a gem5-style simulator. It is a lexer and a parser for a
// synthesisable VHDL subset; the parser builds the same language-neutral
// internal/hdl design tree the Verilog front end builds, and internal/hdl
// elaborates it into the internal/rtl intermediate representation, so VHDL
// designs plug into RTLObject identically.
//
// Supported subset: entity with generics and in/out ports of std_logic,
// std_logic_vector/unsigned/signed (N downto 0) and integer; architecture
// with signal and constant declarations and initialisers; concurrent simple
// and conditional ("when/else") assignments; processes with sensitivity
// lists, rising_edge clocking (including the async-reset idiom, approximated
// as synchronous), if/elsif/else, case/when; entity instantiation with
// generic and port maps; the usual operators; (others => '0'/'1')
// aggregates; bit-string and hex literals; and the numeric_std functions
// (std_logic_vector, unsigned, signed, resize, to_unsigned, to_integer,
// shift_left, shift_right) over the engine's two-state vectors.
//
// The parser does the VHDL-only work, so nothing about the language reaches
// the elaborator but data: operators are respelled in the tree's vocabulary
// (and → &, /= → !=, mod/rem → %, sll → <<, nand → ~(&), & → concatenation,
// …); a when/else chain becomes a Cond chain; an if that tests rising_edge
// or falling_edge is the clock gate, so its test is stripped, its branch
// kept, and its process marked Clocked; the casts become Width nodes or
// vanish; types become [msb:0] ranges; (others => b) becomes a Fill node,
// sized by the elaborator from the assignment target; and name(arg) is an
// index unless name is one of the functions above. A process never reads
// its own pending assignments (signal semantics). Identifiers are
// case-insensitive: the lexer lower-cases them, and Elaborate and Compile
// lower-case the top name and the generic overrides.
package vhdl

import (
	"fmt"
	"strings"

	"gem5rtl/internal/hdl"
	"gem5rtl/internal/rtl"
)

// Elaborate flattens the named top entity of a parsed design into an
// rtl.Circuit (see hdl.Elaborate). overrides replaces generic values.
func Elaborate(d *hdl.Design, top string, overrides map[string]int64) (*rtl.Circuit, error) {
	c, err := hdl.Elaborate(d, strings.ToLower(top), lower(overrides))
	if err != nil {
		return nil, fmt.Errorf("vhdl: %w", err)
	}
	return c, nil
}

// Compile parses, elaborates and compiles VHDL source in one call — the
// equivalent of the paper's GHDL flow producing a tickable model.
func Compile(src, top string, overrides map[string]int64) (*rtl.Model, error) {
	d, err := Parse(src)
	if err != nil {
		return nil, err
	}
	m, err := hdl.Compile(d, strings.ToLower(top), lower(overrides))
	if err != nil {
		return nil, fmt.Errorf("vhdl: %w", err)
	}
	return m, nil
}

func lower(overrides map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(overrides))
	for name, v := range overrides {
		out[strings.ToLower(name)] = v
	}
	return out
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokChar // '0'
	tokBits // "0101"
	tokHex  // x"AF"
	tokPunct
)

type token struct {
	kind tokKind
	text string // identifiers are lower-cased (VHDL is case-insensitive)
	line int
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	depth := 0 // open parentheses, refused past hdl.MaxNesting before the rest is tokenised
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case (c == 'x' || c == 'X') && i+1 < len(src) && src[i+1] == '"':
			j := i + 2
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("vhdl: line %d: unterminated hex literal", line)
			}
			toks = append(toks, token{tokHex, src[i+2 : j], line})
			i = j + 1
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("vhdl: line %d: unterminated string", line)
			}
			toks = append(toks, token{tokBits, src[i+1 : j], line})
			i = j + 1
		case c == '\'' && i+2 < len(src) && src[i+2] == '\'':
			toks = append(toks, token{tokChar, src[i+1 : i+2], line})
			i += 3
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, strings.ToLower(src[i:j]), line})
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '_') {
				j++
			}
			toks = append(toks, token{tokNumber, strings.ReplaceAll(src[i:j], "_", ""), line})
			i = j
		default:
			// Multi-char punctuation.
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "/=", "=>", ":=", "**":
				toks = append(toks, token{tokPunct, two, line})
				i += 2
			default:
				switch c {
				case '(':
					if depth++; depth > hdl.MaxNesting {
						return nil, fmt.Errorf("vhdl: line %d: parentheses nested deeper than %d", line, hdl.MaxNesting)
					}
				case ')':
					depth--
				}
				toks = append(toks, token{tokPunct, string(c), line})
				i++
			}
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
