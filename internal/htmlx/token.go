// Package htmlx implements a small, dependency-free HTML parser and the
// Tags Path machinery the Price $heriff uses to locate a product price
// inside product pages fetched from many vantage points (paper Sect. 3.3).
//
// The parser is intentionally forgiving: real e-commerce pages contain
// unclosed tags, stray angle brackets, script payloads and inline comments.
// It tokenizes the byte stream into start tags, end tags, self-closing
// tags, comments, and text, and then assembles a DOM tree using a small
// subset of the HTML5 implied-end-tag rules (void elements, <p> nesting,
// <li>/<td>/<tr> auto-closing).
package htmlx

import (
	"strings"
)

// TokenType identifies the kind of a lexical token.
type TokenType int

// Token types produced by the tokenizer.
const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
)

func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "Text"
	case StartTagToken:
		return "StartTag"
	case EndTagToken:
		return "EndTag"
	case SelfClosingTagToken:
		return "SelfClosingTag"
	case CommentToken:
		return "Comment"
	case DoctypeToken:
		return "Doctype"
	}
	return "Unknown"
}

// Attr is a single name="value" attribute on a tag.
type Attr struct {
	Key string
	Val string
}

// Token is one lexical token of an HTML document.
type Token struct {
	Type  TokenType
	Data  string // tag name for tags, text for text/comments
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it was present.
func (t *Token) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Key == name {
			return a.Val, true
		}
	}
	return "", false
}

// rawTextTags are elements whose content is not HTML (until the matching
// close tag).
var rawTextTags = map[string]bool{
	"script": true,
	"style":  true,
}

// Tokenizer walks an HTML document byte by byte.
type Tokenizer struct {
	src string
	pos int
	// pending raw-text element name; when set, the next token is everything
	// up to its close tag.
	rawTag string
	// scratch, when non-nil, backs the Attrs of every token, so a token's
	// Attrs are only good until the next call. Parse sets it and copies
	// the attributes out; NewTokenizer leaves it nil, and tokens handed
	// out by the public API never alias each other.
	scratch []Attr
}

// NewTokenizer returns a Tokenizer over src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token and true, or a zero Token and false at EOF.
func (z *Tokenizer) Next() (Token, bool) {
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.rawTag != "" {
		return z.rawText(), true
	}
	if z.src[z.pos] == '<' {
		return z.tag(), true
	}
	return z.text(), true
}

func (z *Tokenizer) rawText() Token {
	closer := "</" + z.rawTag
	rest := z.src[z.pos:]
	idx := indexFold(rest, closer)
	tag := z.rawTag
	z.rawTag = ""
	if idx < 0 {
		z.pos = len(z.src)
		return Token{Type: TextToken, Data: rest}
	}
	if idx == 0 {
		// Empty raw text: fall through to the close tag.
		return z.tag()
	}
	z.pos += idx
	_ = tag
	return Token{Type: TextToken, Data: rest[:idx]}
}

func (z *Tokenizer) text() Token {
	start := z.pos
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TextToken, Data: DecodeEntities(z.src[start:z.pos])}
}

// DecodeEntities resolves the five named HTML entities and numeric
// character references; anything unrecognized passes through verbatim.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte('&')
			i++
			continue
		}
		entity := s[i+1 : i+semi]
		switch entity {
		case "lt":
			b.WriteByte('<')
		case "gt":
			b.WriteByte('>')
		case "amp":
			b.WriteByte('&')
		case "quot":
			b.WriteByte('"')
		case "apos":
			b.WriteByte('\'')
		default:
			if r, ok := numericEntity(entity); ok {
				b.WriteRune(r)
			} else {
				b.WriteString(s[i : i+semi+1])
			}
		}
		i += semi + 1
	}
	return b.String()
}

// numericEntity parses "#60" or "#x3C" forms.
func numericEntity(entity string) (rune, bool) {
	if len(entity) < 2 || entity[0] != '#' {
		return 0, false
	}
	body := entity[1:]
	base := 10
	if body[0] == 'x' || body[0] == 'X' {
		base = 16
		body = body[1:]
		if body == "" {
			return 0, false
		}
	}
	var v int64
	for i := 0; i < len(body); i++ {
		c := body[i]
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, false
		}
		v = v*int64(base) + d
		if v > 0x10FFFF {
			return 0, false
		}
	}
	if v == 0 || (v >= 0xD800 && v <= 0xDFFF) {
		return 0, false
	}
	return rune(v), true
}

// EncodeEntities escapes the characters that would change the parse when
// re-serialized: &, <, > in text, plus the double quote for attributes.
func EncodeEntities(s string, attr bool) string {
	var b strings.Builder
	b.Grow(len(s))
	// Byte-wise: only ASCII metacharacters need escaping, and invalid
	// UTF-8 must pass through untouched (pages in the wild contain it).
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '"':
			if attr {
				b.WriteString("&quot;")
			} else {
				b.WriteByte('"')
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func (z *Tokenizer) tag() Token {
	// z.src[z.pos] == '<'
	if strings.HasPrefix(z.src[z.pos:], "<!--") {
		end := strings.Index(z.src[z.pos+4:], "-->")
		var data string
		if end < 0 {
			data = z.src[z.pos+4:]
			z.pos = len(z.src)
		} else {
			data = z.src[z.pos+4 : z.pos+4+end]
			z.pos += 4 + end + 3
		}
		return Token{Type: CommentToken, Data: data}
	}
	if strings.HasPrefix(z.src[z.pos:], "<!") {
		end := strings.IndexByte(z.src[z.pos:], '>')
		var data string
		if end < 0 {
			data = z.src[z.pos+2:]
			z.pos = len(z.src)
		} else {
			data = z.src[z.pos+2 : z.pos+end]
			z.pos += end + 1
		}
		return Token{Type: DoctypeToken, Data: strings.TrimSpace(data)}
	}
	end := strings.IndexByte(z.src[z.pos:], '>')
	if end < 0 {
		// Stray '<' at the end of input: treat the remainder as text.
		tok := Token{Type: TextToken, Data: z.src[z.pos:]}
		z.pos = len(z.src)
		return tok
	}
	inner := z.src[z.pos+1 : z.pos+end]
	z.pos += end + 1

	closing := false
	if strings.HasPrefix(inner, "/") {
		closing = true
		inner = inner[1:]
	}
	selfClosing := false
	if strings.HasSuffix(inner, "/") {
		selfClosing = true
		inner = inner[:len(inner)-1]
	}
	name, attrs := parseTagBody(inner, z.scratch)
	if z.scratch != nil {
		z.scratch = attrs[:0] // keep the grown buffer
	}
	if name == "" {
		// "<>" or "< 3": not a tag; emit as text to stay lossless.
		return Token{Type: TextToken, Data: "<" + inner + ">"}
	}
	switch {
	case closing:
		return Token{Type: EndTagToken, Data: name}
	case selfClosing:
		return Token{Type: SelfClosingTagToken, Data: name, Attrs: attrs}
	default:
		if rawTextTags[name] {
			z.rawTag = name
		}
		return Token{Type: StartTagToken, Data: name, Attrs: attrs}
	}
}

// parseTagBody splits the inside of <...> into a lowercase tag name and
// attribute list, appended to attrs (empty; nil allocates a fresh list).
func parseTagBody(s string, attrs []Attr) (string, []Attr) {
	i := 0
	for i < len(s) && !isSpace(s[i]) {
		i++
	}
	name := strings.ToLower(s[:i])
	if !validTagName(name) {
		return "", attrs
	}
	for i < len(s) {
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) {
			break
		}
		keyStart := i
		for i < len(s) && s[i] != '=' && !isSpace(s[i]) {
			i++
		}
		key := strings.ToLower(s[keyStart:i])
		if key == "" {
			i++
			continue
		}
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			attrs = append(attrs, Attr{Key: key})
			continue
		}
		i++ // consume '='
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		var val string
		if i < len(s) && (s[i] == '"' || s[i] == '\'') {
			quote := s[i]
			i++
			valStart := i
			for i < len(s) && s[i] != quote {
				i++
			}
			val = s[valStart:i]
			if i < len(s) {
				i++
			}
		} else {
			valStart := i
			for i < len(s) && !isSpace(s[i]) {
				i++
			}
			val = s[valStart:i]
		}
		attrs = append(attrs, Attr{Key: key, Val: DecodeEntities(val)})
	}
	return name, attrs
}

func validTagName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9' && i > 0:
		case c == '-' && i > 0:
		default:
			return false
		}
	}
	return true
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// indexFold returns the index of the first case-insensitive occurrence of
// needle in haystack, or -1.
func indexFold(haystack, needle string) int {
	n := len(needle)
	if n == 0 {
		return 0
	}
	for i := 0; i+n <= len(haystack); i++ {
		if strings.EqualFold(haystack[i:i+n], needle) {
			return i
		}
	}
	return -1
}
