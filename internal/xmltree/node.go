// Package xmltree provides the ordered-tree document model every labeling
// scheme operates on: elements with attributes and text, explicit sibling
// order, structural mutation operations (the paper's update workloads), and
// document statistics (node count N, depth D, fan-out F) that drive the size
// model.
package xmltree

import "fmt"

// Kind discriminates node types. The labeling schemes in the paper label
// element nodes; text content is carried on the tree for realism and for
// value predicates in queries, but text nodes are not labeled.
type Kind uint8

const (
	// ElementNode is a tagged element.
	ElementNode Kind = iota
	// TextNode is character data; always a leaf.
	TextNode
)

// String returns "element" or "text", and Kind(n) for any other value.
func (k Kind) String() string {
	switch k {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attr is a single attribute name/value pair.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of an ordered XML tree. Children order is document
// order. The zero value is not useful; construct nodes with NewElement and
// NewText.
type Node struct {
	Kind     Kind
	Name     string // element tag name; empty for text nodes
	Data     string // character data for text nodes
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// NewElement returns a parentless element node with the given tag name.
func NewElement(name string) *Node {
	return &Node{Kind: ElementNode, Name: name}
}

// NewText returns a parentless text node with the given character data.
func NewText(data string) *Node {
	return &Node{Kind: TextNode, Data: data}
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets or replaces the named attribute.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// IsLeaf reports whether n has no element children. Text children do not
// count: the paper's Opt2 treats an element with only character data as a
// leaf for labeling purposes.
func (n *Node) IsLeaf() bool {
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			return false
		}
	}
	return true
}

// ElementChildren returns n's element children in document order.
func (n *Node) ElementChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// Text returns the concatenated character data of n's direct text children.
func (n *Node) Text() string {
	s := ""
	for _, c := range n.Children {
		if c.Kind == TextNode {
			s += c.Data
		}
	}
	return s
}

// ChildIndex returns the position of c among n's children, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, ch := range n.Children {
		if ch == c {
			return i
		}
	}
	return -1
}

// RawChildIndex maps a position among n's element children to a position
// among all its children (text nodes interleave): an element inserted there
// lands right after the elemIdx-th element child — first for elemIdx <= 0,
// last when n has fewer element children.
func (n *Node) RawChildIndex(elemIdx int) int {
	if elemIdx <= 0 {
		return 0
	}
	seen := 0
	for i, c := range n.Children {
		if c.Kind != ElementNode {
			continue
		}
		seen++
		if seen == elemIdx {
			return i + 1
		}
	}
	return len(n.Children)
}

// Depth returns the number of edges from n up to the root (root depth 0).
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Root returns the topmost ancestor of n (possibly n itself).
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// IsAncestorOf reports whether n is a proper ancestor of d by walking
// parent pointers. This is the ground truth the label-based tests are
// validated against; labeling schemes answer the same question from labels
// alone.
func (n *Node) IsAncestorOf(d *Node) bool {
	for p := d.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// Document is a rooted XML tree.
type Document struct {
	Root *Node
}

// NewDocument returns a Document with the given root element.
func NewDocument(root *Node) *Document {
	return &Document{Root: root}
}
