package htmlx

import (
	"errors"
	"fmt"
	"strings"
)

// Step is one hop of a Tags Path: which element to descend into from the
// current node. Index counts only element children with the same tag name,
// so the path survives text-node and comment churn between page fetches.
type Step struct {
	Tag   string `json:"tag"`
	Index int    `json:"index"`           // index among same-tag element children
	Class string `json:"class,omitempty"` // class attribute at build time
	ID    string `json:"id,omitempty"`    // id attribute at build time
}

// TagsPath locates the HTML element holding a product price inside a copy
// of the page fetched from a different vantage point (paper Sect. 3.3 and
// Fig. 4). It is built once by the initiating browser add-on and shipped to
// the Measurement server with the price check request.
type TagsPath struct {
	Steps []Step `json:"steps"`
}

// ErrNotLocated is returned by Locate when no candidate element can be
// found in the target document.
var ErrNotLocated = errors.New("htmlx: tags path does not locate an element")

// BuildTagsPath constructs the path from the document root down to target.
// target must be an element node inside a tree produced by Parse.
func BuildTagsPath(target *Node) (TagsPath, error) {
	if target == nil || target.Type != ElementNode {
		return TagsPath{}, errors.New("htmlx: tags path target must be an element")
	}
	// Walk upwards collecting steps, exactly like the add-on's bottom-up
	// construction, then reverse into root-down order.
	var rev []Step
	for n := target; n != nil && n.Type == ElementNode; n = n.Parent {
		step := Step{Tag: n.Tag, Class: n.Class(), ID: n.ID()}
		if p := n.Parent; p != nil {
			idx := 0
			for _, sib := range p.Children {
				if sib == n {
					break
				}
				if sib.Type == ElementNode && sib.Tag == n.Tag {
					idx++
				}
			}
			step.Index = idx
		}
		rev = append(rev, step)
	}
	steps := make([]Step, len(rev))
	for i, s := range rev {
		steps[len(rev)-1-i] = s
	}
	return TagsPath{Steps: steps}, nil
}

// Locate finds the element addressed by the path in doc.
//
// Resolution is attempted in three tiers, because pages fetched from other
// proxies differ (ads, localized banners, per-user recommendations):
//
//  1. exact walk: tag + same-tag child index at every step;
//  2. relaxed walk: tag + class match when the exact index is missing;
//  3. fingerprint scan: any element in the document whose tag, class and id
//     equal the final step's.
func (p TagsPath) Locate(doc *Node) (*Node, error) {
	n, _ := p.LocateTiered(doc, -1)
	if n == nil {
		return nil, ErrNotLocated
	}
	return n, nil
}

// Tier numbers of the Locate resolution strategy, exported so callers can
// cache which tier resolved a (domain, path) pair and try it first on the
// next page from the same template.
const (
	TierExact       = 0 // exact walk
	TierRelaxed     = 1 // class-anchored walk
	TierFingerprint = 2 // whole-document fingerprint scan
	NumTiers        = 3
)

// LocateTiered resolves the path, trying hint's tier first when hint is a
// valid tier number, then the remaining tiers in ascending order. It
// returns the element and the tier that found it (-1 when not located).
func (p TagsPath) LocateTiered(doc *Node, hint int) (*Node, int) {
	if len(p.Steps) == 0 {
		return nil, -1
	}
	if hint >= 0 && hint < NumTiers {
		if n := p.locateTier(doc, hint); n != nil {
			return n, hint
		}
	}
	for tier := 0; tier < NumTiers; tier++ {
		if tier == hint {
			continue
		}
		if n := p.locateTier(doc, tier); n != nil {
			return n, tier
		}
	}
	return nil, -1
}

// locateTier runs exactly one resolution tier.
func (p TagsPath) locateTier(doc *Node, tier int) *Node {
	switch tier {
	case TierExact:
		return p.walk(doc, true)
	case TierRelaxed:
		return p.walk(doc, false)
	case TierFingerprint:
		last := p.Steps[len(p.Steps)-1]
		return doc.Find(func(d *Node) bool {
			return d.Tag == last.Tag && d.Class() == last.Class && d.ID() == last.ID
		})
	default:
		return nil
	}
}

func (p TagsPath) walk(doc *Node, exact bool) *Node {
	cur := doc
	for _, step := range p.Steps {
		next := childByStep(cur, step, exact)
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

func childByStep(parent *Node, step Step, exact bool) *Node {
	idx := 0
	var classMatch *Node
	for _, c := range parent.Children {
		if c.Type != ElementNode || c.Tag != step.Tag {
			continue
		}
		// The class recorded at build time must agree in both modes: a
		// same-tag sibling at the right index with a different class is a
		// different element (ads and promos shift positions between
		// fetches).
		if idx == step.Index && c.Class() == step.Class {
			return c
		}
		if !exact && classMatch == nil && c.Class() == step.Class {
			classMatch = c
		}
		idx++
	}
	if exact {
		return nil
	}
	return classMatch
}

// String renders the path in the paper's display notation:
// "Bottom, </html>, </body>, </div>, <span class="price">".
func (p TagsPath) String() string {
	var b strings.Builder
	b.WriteString("Bottom")
	for i, s := range p.Steps {
		b.WriteString(", ")
		if i == len(p.Steps)-1 {
			b.WriteByte('<')
			b.WriteString(s.Tag)
			if s.Class != "" {
				fmt.Fprintf(&b, " class=%q", s.Class)
			}
			b.WriteByte('>')
		} else {
			b.WriteString("</")
			b.WriteString(s.Tag)
			b.WriteByte('>')
		}
	}
	return b.String()
}

// Depth returns the number of steps in the path.
func (p TagsPath) Depth() int { return len(p.Steps) }

// Fingerprint hashes what the path says about the element it addresses:
// every step's tag, class and id, and its same-tag sibling index — except
// on a step that carries an id. Ids are unique within a document, so such
// a step is named by its id alone, and its index is exactly what shifts
// when a shop injects a banner above the product block: two users who
// highlight the same price on two renderings of one page get one
// fingerprint. Unlike the parse cache's seeded key it is FNV-1a, the same
// in every process.
func (p TagsPath) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h = (h ^ 0xff) * prime // field separator: no byte of a UTF-8 string
	}
	for _, s := range p.Steps {
		mix(s.Tag)
		mix(s.Class)
		mix(s.ID)
		if s.ID == "" {
			h = (h ^ uint64(uint32(s.Index))) * prime
		}
	}
	return h
}
