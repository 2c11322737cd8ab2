// Package verilog implements gem5rtl's Verilog toolflow: a lexer and parser
// for a synthesisable subset of Verilog-2001 (with a few SystemVerilog
// conveniences such as always_ff/always_comb and logic). It plays the role
// Verilator plays in the paper — converting RTL source into a compiled,
// tickable model: the parser builds the language-neutral internal/hdl design
// tree, which internal/hdl elaborates into the internal/rtl intermediate
// representation. A combinational always block is the one process whose
// reads see its own earlier (blocking) assignments.
//
// Supported subset: ANSI-style module headers, parameters/localparams,
// wire/reg/logic declarations with vector ranges, memory arrays, continuous
// assigns, always blocks (posedge-clocked with optional async-reset
// sensitivity terms, and combinational @* / always_comb), if/else, case with
// default, blocking and non-blocking assignments, bit/part-select lvalues,
// module instantiation with named connections and parameter overrides, and
// the usual expression operators including concatenation, replication, and
// the conditional operator. Signals are limited to 64 bits.
package verilog

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber // raw literal text, decoded by the parser
	tokSysIdent
	tokString
	tokPunct
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

// lexError reports a scan failure with position info.
type lexError struct {
	msg  string
	line int
	col  int
}

func (e *lexError) Error() string {
	return fmt.Sprintf("verilog: line %d:%d: %s", e.line, e.col, e.msg)
}

// multi-character punctuation, longest first so maximal munch works.
var punct3 = []string{"<<<", ">>>", "===", "!=="}
var punct2 = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**",
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []token
}

// lex scans src into tokens, stripping comments.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.advance(1)
		case c == '\n':
			l.pos++
			l.line++
			l.col = 1
		case strings.HasPrefix(l.src[l.pos:], "//"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return nil, &lexError{"unterminated block comment", l.line, l.col}
			}
			for i := 0; i < end+4; i++ {
				if l.src[l.pos] == '\n' {
					l.pos++
					l.line++
					l.col = 1
				} else {
					l.advance(1)
				}
			}
		case c == '"':
			if err := l.scanString(); err != nil {
				return nil, err
			}
		case c == '`':
			// Preprocessor directives: skip the rest of the line (we accept
			// sources with `timescale etc. but don't implement macros).
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case isIdentStart(c):
			l.scanIdent()
		case c == '$':
			l.scanSysIdent()
		case c >= '0' && c <= '9' || c == '\'':
			if err := l.scanNumber(); err != nil {
				return nil, err
			}
		default:
			l.scanPunct()
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, line: l.line, col: l.col})
	return l.toks, nil
}

func (l *lexer) advance(n int) { l.pos += n; l.col += n }

func (l *lexer) emit(kind tokKind, text string, line, col int) {
	l.toks = append(l.toks, token{kind: kind, text: text, line: line, col: col})
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '$'
}

func (l *lexer) scanIdent() {
	line, col := l.line, l.col
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.advance(1)
	}
	l.emit(tokIdent, l.src[start:l.pos], line, col)
}

func (l *lexer) scanSysIdent() {
	line, col := l.line, l.col
	start := l.pos
	l.advance(1)
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.advance(1)
	}
	l.emit(tokSysIdent, l.src[start:l.pos], line, col)
}

func (l *lexer) scanString() error {
	line, col := l.line, l.col
	start := l.pos
	l.advance(1)
	for l.pos < len(l.src) && l.src[l.pos] != '"' {
		if l.src[l.pos] == '\n' {
			return &lexError{"unterminated string", line, col}
		}
		l.advance(1)
	}
	if l.pos >= len(l.src) {
		return &lexError{"unterminated string", line, col}
	}
	l.advance(1)
	l.emit(tokString, l.src[start:l.pos], line, col)
	return nil
}

// scanNumber handles plain decimals, based literals (8'hFF, 'b1010, 4'd9),
// and underscores within digits.
func (l *lexer) scanNumber() error {
	line, col := l.line, l.col
	start := l.pos
	// Leading size digits (optional).
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '_') {
		l.advance(1)
	}
	if l.pos < len(l.src) && l.src[l.pos] == '\'' {
		l.advance(1)
		if l.pos < len(l.src) && (l.src[l.pos] == 's' || l.src[l.pos] == 'S') {
			l.advance(1)
		}
		if l.pos >= len(l.src) {
			return &lexError{"truncated based literal", line, col}
		}
		base := l.src[l.pos]
		switch base {
		case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H':
			l.advance(1)
		default:
			return &lexError{fmt.Sprintf("bad numeric base %q", string(base)), line, col}
		}
		for l.pos < len(l.src) && (isHexDigit(l.src[l.pos]) || l.src[l.pos] == '_' ||
			l.src[l.pos] == 'x' || l.src[l.pos] == 'X' || l.src[l.pos] == 'z' || l.src[l.pos] == 'Z') {
			l.advance(1)
		}
	}
	l.emit(tokNumber, l.src[start:l.pos], line, col)
	return nil
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (l *lexer) scanPunct() {
	line, col := l.line, l.col
	rest := l.src[l.pos:]
	for _, p := range punct3 {
		if strings.HasPrefix(rest, p) {
			l.advance(3)
			l.emit(tokPunct, p, line, col)
			return
		}
	}
	for _, p := range punct2 {
		if strings.HasPrefix(rest, p) {
			l.advance(2)
			l.emit(tokPunct, p, line, col)
			return
		}
	}
	l.advance(1)
	l.emit(tokPunct, rest[:1], line, col)
}
