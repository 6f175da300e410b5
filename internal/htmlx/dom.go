package htmlx

import (
	"strings"
)

// NodeType identifies the kind of a DOM node.
type NodeType int

// Node types.
const (
	ElementNode NodeType = iota
	TextNode
	CommentNode
	DocumentNode
)

// Node is one node of the parsed document tree.
type Node struct {
	Type     NodeType
	Tag      string // element name for ElementNode
	Text     string // text for TextNode / CommentNode
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == name {
			return a.Val, true
		}
	}
	return "", false
}

// Class returns the element's class attribute ("" if absent).
func (n *Node) Class() string {
	v, _ := n.Attr("class")
	return v
}

// ID returns the element's id attribute ("" if absent).
func (n *Node) ID() string {
	v, _ := n.Attr("id")
	return v
}

// InnerText returns the concatenated text content of the subtree, with
// scripts and styles excluded and whitespace collapsed at the joints.
func (n *Node) InnerText() string {
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	switch n.Type {
	case TextNode:
		b.WriteString(n.Text)
	case ElementNode:
		if rawTextTags[n.Tag] {
			return
		}
	}
	for _, c := range n.Children {
		c.appendText(b)
	}
}

// Find returns the first element in depth-first order for which match
// returns true, or nil.
func (n *Node) Find(match func(*Node) bool) *Node {
	if n.Type == ElementNode && match(n) {
		return n
	}
	for _, c := range n.Children {
		if found := c.Find(match); found != nil {
			return found
		}
	}
	return nil
}

// FindAll returns every element in depth-first order for which match
// returns true.
func (n *Node) FindAll(match func(*Node) bool) []*Node {
	var out []*Node
	n.walk(func(d *Node) {
		if d.Type == ElementNode && match(d) {
			out = append(out, d)
		}
	})
	return out
}

func (n *Node) walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.walk(visit)
	}
}

// FindByTag returns all elements with the given tag name.
func (n *Node) FindByTag(tag string) []*Node {
	return n.FindAll(func(d *Node) bool { return d.Tag == tag })
}

// FindByClass returns all elements whose class attribute contains the given
// class (space-separated match, like a CSS class selector).
func (n *Node) FindByClass(class string) []*Node {
	return n.FindAll(func(d *Node) bool {
		for _, c := range strings.Fields(d.Class()) {
			if c == class {
				return true
			}
		}
		return false
	})
}

// voidTags never have children in HTML.
var voidTags = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// impliedEnd maps a start tag to the set of open tags it implicitly closes.
var impliedEnd = map[string][]string{
	"li":     {"li"},
	"td":     {"td", "th"},
	"th":     {"td", "th"},
	"tr":     {"tr", "td", "th"},
	"p":      {"p"},
	"option": {"option"},
}

// Parse builds a DOM tree from src. It never fails: malformed input
// degrades into text nodes and auto-closed elements.
//
// The tree is built out of three per-document slabs, sized exactly by a
// counting pass over the tokens: every Node, every Attr and every
// Children window live in one allocation each. A tree is immutable once
// returned; Attrs and Children are capacity-clipped, so a caller that
// appends to one gets a copy instead of a neighbour's slots. Holding any
// node keeps the whole document (and src, which Tag, Text and attribute
// strings are views of) reachable.
func Parse(src string) *Node {
	var attrBuf [8]Attr
	z := Tokenizer{src: src, scratch: attrBuf[:0]}
	nNodes, nAttrs := 1, 0 // the document node
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if tok.Data != "" {
				nNodes++
			}
		case CommentToken:
			nNodes++
		case StartTagToken, SelfClosingTagToken:
			nNodes++
			nAttrs += len(tok.Attrs)
		}
	}
	nodes := make([]Node, 1, nNodes)
	attrs := make([]Attr, 0, nAttrs)
	kids := make([]*Node, nNodes-1)

	doc := &nodes[0]
	doc.Type = DocumentNode
	var stackBuf [32]*Node
	stack := append(stackBuf[:0], doc)
	// add places a node under the innermost open element. Nodes land in
	// the slab in document order; until the tree is linked below,
	// len(Children) is only a child count (the window it is taken over is a
	// placeholder).
	add := func(typ NodeType, tag, text string, tokAttrs []Attr) *Node {
		p := stack[len(stack)-1]
		p.Children = kids[:len(p.Children)+1]
		nodes = append(nodes, Node{Type: typ, Tag: tag, Text: text, Parent: p})
		n := &nodes[len(nodes)-1]
		if len(tokAttrs) > 0 {
			at := len(attrs)
			attrs = append(attrs, tokAttrs...)
			n.Attrs = attrs[at:len(attrs):len(attrs)]
		}
		return n
	}

	z = Tokenizer{src: src, scratch: z.scratch}
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if tok.Data == "" {
				continue
			}
			add(TextNode, "", tok.Data, nil)
		case CommentToken:
			add(CommentNode, "", tok.Data, nil)
		case DoctypeToken:
			// dropped: the tree does not model doctypes
		case SelfClosingTagToken:
			add(ElementNode, tok.Data, "", tok.Attrs)
		case StartTagToken:
			if closes, ok := impliedEnd[tok.Data]; ok {
				for _, c := range closes {
					if stack[len(stack)-1].Tag == c {
						stack = stack[:len(stack)-1]
						break
					}
				}
			}
			el := add(ElementNode, tok.Data, "", tok.Attrs)
			if !voidTags[tok.Data] {
				stack = append(stack, el)
			}
		case EndTagToken:
			// Pop to the nearest matching open element; ignore the end tag
			// if nothing matches (stray close tag).
			for i := len(stack) - 1; i > 0; i-- {
				if stack[i].Tag == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}

	// Link: give every parent its exact window of the child slab, then fill
	// the windows in document order.
	off := 0
	for i := range nodes {
		if k := len(nodes[i].Children); k > 0 {
			nodes[i].Children = kids[off : off : off+k]
			off += k
		}
	}
	for i := 1; i < len(nodes); i++ {
		p := nodes[i].Parent
		p.Children = append(p.Children, &nodes[i])
	}
	return doc
}

// Render serializes the tree back to HTML. Round-tripping Parse(Render(n))
// yields an equivalent tree; exact byte fidelity with the original source is
// not a goal.
func Render(n *Node) string {
	var b strings.Builder
	render(&b, n)
	return b.String()
}

func render(b *strings.Builder, n *Node) {
	switch n.Type {
	case DocumentNode:
		for _, c := range n.Children {
			render(b, c)
		}
	case TextNode:
		if n.Parent != nil && rawTextTags[n.Parent.Tag] {
			// Raw-text content (script/style) is stored verbatim; the
			// tokenizer guarantees it cannot contain its own close tag.
			b.WriteString(n.Text)
			return
		}
		b.WriteString(EncodeEntities(n.Text, false))
	case CommentNode:
		b.WriteString("<!--")
		// "--" inside a comment would terminate it early on re-parse.
		b.WriteString(strings.ReplaceAll(n.Text, "--", "- -"))
		b.WriteString("-->")
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Tag)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			if a.Val != "" {
				b.WriteString(`="`)
				b.WriteString(EncodeEntities(a.Val, true))
				b.WriteByte('"')
			}
		}
		b.WriteByte('>')
		if voidTags[n.Tag] {
			return
		}
		for _, c := range n.Children {
			render(b, c)
		}
		b.WriteString("</")
		b.WriteString(n.Tag)
		b.WriteByte('>')
	}
}
