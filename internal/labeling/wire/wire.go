// Package wire provides the shared binary primitives every labeling
// persistence codec (prime, interval, prefix, Dewey, float and compact) is
// written with: a varint-packed writer/reader pair with sticky error
// handling, plus a preorder tree serializer that interleaves per-element
// label payloads with the XML structure. The codecs check what they read
// (see codec.Unmarshal); wire only bounds lengths and counts.
//
// Streams written with this package are internal formats: they are versioned
// by each scheme's magic header and carry no cross-version compatibility
// promise.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"primelabel/internal/xmltree"
)

// ErrBadFormat reports a stream that is not a valid serialized labeling.
var ErrBadFormat = errors.New("wire: malformed stream")

// Limits that reject absurd values before they turn into huge allocations.
// No legitimate document comes anywhere near them.
const (
	maxStringLen = 1 << 28
	maxChildren  = 1 << 24
)

// Writer encodes varint-packed values onto an underlying stream. Errors are
// sticky: after the first write failure every call is a no-op and Flush
// returns the error.
type Writer struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer buffering onto out.
func NewWriter(out io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(out)}
}

// Uvarint writes one unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

// Int writes a non-negative int as a uvarint.
func (w *Writer) Int(v int) { w.Uvarint(uint64(v)) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

// Bool writes a boolean as a 0/1 uvarint.
func (w *Writer) Bool(b bool) {
	v := uint64(0)
	if b {
		v = 1
	}
	w.Uvarint(v)
}

// F64 writes a float64 as its fixed 8-byte little-endian bit pattern
// (bit-exact round-tripping matters: float labels are allocation state).
func (w *Writer) F64(v float64) {
	if w.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	_, w.err = w.w.Write(b[:])
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// Raw writes bytes verbatim, without a length prefix (used for magic
// headers).
func (w *Writer) Raw(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Fail marks the stream bad with a formatted error (no-op if an error is
// already recorded). Codecs use it when the in-memory state they are asked
// to serialize is itself inconsistent.
func (w *Writer) Fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// Flush writes buffered bytes through and returns the first error
// encountered by any prior call.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes streams written by Writer. Errors are sticky: after the
// first failure every read returns a zero value and Err reports the cause.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader returns a Reader buffering from in.
func NewReader(in io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(in)}
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return v
}

// Int reads a non-negative int written by Writer.Int.
func (r *Reader) Int() int { return int(r.Uvarint()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.err = fmt.Errorf("%w: unreasonable string length %d", ErrBadFormat, n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return ""
	}
	return string(buf)
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Uvarint() != 0 }

// F64 reads a float64 written by Writer.F64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxStringLen {
		r.err = fmt.Errorf("%w: unreasonable byte length %d", ErrBadFormat, n)
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return nil
	}
	return buf
}

// Expect consumes len(magic) bytes and fails the stream unless they match.
func (r *Reader) Expect(magic []byte) {
	if r.err != nil {
		return
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r.r, head); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return
	}
	if string(head) != string(magic) {
		r.err = fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail marks the stream bad with a formatted ErrBadFormat cause (no-op if an
// error is already recorded).
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadFormat, fmt.Sprintf(format, args...))
	}
}

// Node kind tags used by WriteTree/ReadTree.
const (
	kindElement = 0
	kindText    = 1
)

// WriteTree serializes the subtree rooted at root in preorder. For each
// element node it writes the name and attributes, then calls elem to append
// the scheme's per-element payload, then the children. Text nodes carry
// their character data only.
func WriteTree(w *Writer, root *xmltree.Node, elem func(n *xmltree.Node)) {
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.Kind == xmltree.TextNode {
			w.Int(kindText)
			w.Str(n.Data)
			return
		}
		w.Int(kindElement)
		w.Str(n.Name)
		w.Int(len(n.Attrs))
		for _, a := range n.Attrs {
			w.Str(a.Name)
			w.Str(a.Value)
		}
		elem(n)
		w.Int(len(n.Children))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
}

// ReadTree reconstructs a tree written by WriteTree. elem is called for each
// element node, immediately after its name and attributes are read and
// before its children, to consume the scheme's per-element payload; the node
// is not yet linked to its parent at that point.
func ReadTree(r *Reader, elem func(n *xmltree.Node) error) (*xmltree.Node, error) {
	var read func(isRoot bool) (*xmltree.Node, error)
	read = func(isRoot bool) (*xmltree.Node, error) {
		kind := r.Int()
		if r.err != nil {
			return nil, r.err
		}
		switch kind {
		case kindText:
			if isRoot {
				return nil, fmt.Errorf("%w: text node as root", ErrBadFormat)
			}
			return xmltree.NewText(r.Str()), nil
		case kindElement:
			n := xmltree.NewElement(r.Str())
			attrCount := r.Int()
			if r.err != nil {
				return nil, r.err
			}
			if attrCount > maxChildren {
				return nil, fmt.Errorf("%w: unreasonable attribute count", ErrBadFormat)
			}
			for i := 0; i < attrCount; i++ {
				n.Attrs = append(n.Attrs, xmltree.Attr{Name: r.Str(), Value: r.Str()})
			}
			if err := elem(n); err != nil {
				return nil, err
			}
			childCount := r.Int()
			if r.err != nil {
				return nil, r.err
			}
			if childCount > maxChildren {
				return nil, fmt.Errorf("%w: unreasonable child count", ErrBadFormat)
			}
			for i := 0; i < childCount; i++ {
				c, err := read(false)
				if err != nil {
					return nil, err
				}
				if err := n.AppendChild(c); err != nil {
					return nil, err
				}
			}
			return n, nil
		default:
			return nil, fmt.Errorf("%w: unknown node kind %d", ErrBadFormat, kind)
		}
	}
	return read(true)
}
