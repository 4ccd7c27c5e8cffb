// Package codec is the per-scheme dispatch for labeled documents. It holds
// the scheme registry (name to constructor, see NewScheme) and the label
// renderer (LabelString) that the library and labeld share, and the
// persistence layer: it frames a stream with a magic header and a scheme
// tag, then delegates to the owning package's Marshal/Unmarshal — prime,
// interval (XISS and XRel), prefix (Prefix-1 and Prefix-2), Dewey, float
// and compact — so a single Save/Load pair covers every serving scheme.
// Every scheme's payload is written with internal/labeling/wire: the tree
// in preorder, each element's label parts beside it.
//
// Persistence exists because dynamic updates make allocation state
// history-dependent in every scheme: the prime scheme's prime source and SC
// table, interval gaps left by deletes, prefix codes past deleted siblings,
// Dewey component gaps, float midpoint bit patterns. Relabeling from the
// XML would produce different labels, which is exactly what a label store
// must never do.
//
// The static study variants prime-bottomup and prime-decomposed are not
// persistable; Marshal returns ErrUnsupported for them.
package codec

import (
	"errors"
	"fmt"
	"io"

	"primelabel/internal/labeling"
	"primelabel/internal/labeling/compact"
	"primelabel/internal/labeling/floatlab"
	"primelabel/internal/labeling/interval"
	"primelabel/internal/labeling/prefix"
	"primelabel/internal/labeling/prime"
)

// Magic identifies a codec-framed stream (version 1). Callers that need to
// distinguish codec streams from the prime scheme's legacy bare format can
// peek for it.
var Magic = []byte("LBLCODEC\x01")

// ErrUnsupported reports a labeling whose scheme has no persistence codec.
var ErrUnsupported = errors.New("codec: scheme does not support persistence")

// ErrBadFormat reports a stream that is not a codec-framed labeling.
var ErrBadFormat = errors.New("codec: invalid labeled-document stream")

// Scheme tags stored in the stream header.
const (
	tagPrime    = "prime"
	tagInterval = "interval"
	tagPrefix   = "prefix"
	tagDewey    = "dewey"
	tagFloat    = "float"
	tagCompact  = "compact"
)

// Supported reports whether Marshal can persist l.
func Supported(l labeling.Labeling) bool {
	switch l.(type) {
	case *prime.Labeling, *interval.Labeling, *prefix.Labeling, *prefix.DeweyLabeling, *floatlab.Labeling, *compact.Labeling:
		return true
	default:
		return false
	}
}

// Marshal writes l — tree, labels, and all allocation state — to w, framed
// with the codec header so Unmarshal can restore it without knowing the
// scheme in advance. It returns ErrUnsupported for schemes with no codec.
func Marshal(l labeling.Labeling, w io.Writer) error {
	var tag string
	switch l.(type) {
	case *prime.Labeling:
		tag = tagPrime
	case *interval.Labeling:
		tag = tagInterval
	case *prefix.Labeling:
		tag = tagPrefix
	case *prefix.DeweyLabeling:
		tag = tagDewey
	case *floatlab.Labeling:
		tag = tagFloat
	case *compact.Labeling:
		tag = tagCompact
	default:
		return fmt.Errorf("%w: %s", ErrUnsupported, l.SchemeName())
	}
	header := make([]byte, 0, len(Magic)+1+len(tag))
	header = append(header, Magic...)
	header = append(header, byte(len(tag)))
	header = append(header, tag...)
	if _, err := w.Write(header); err != nil {
		return err
	}
	switch v := l.(type) {
	case *prime.Labeling:
		return v.Marshal(w)
	case *interval.Labeling:
		return v.Marshal(w)
	case *prefix.Labeling:
		return v.Marshal(w)
	case *prefix.DeweyLabeling:
		return v.Marshal(w)
	case *floatlab.Labeling:
		return v.Marshal(w)
	case *compact.Labeling:
		return v.Marshal(w)
	}
	panic("unreachable")
}

// Unmarshal reads a labeling written by Marshal, dispatching on the stored
// scheme tag. The returned value is the concrete labeling type of the
// scheme that produced the stream. Snapshots carry no checksum, so every
// codec verifies its scheme's invariants before returning, and a corrupted
// or tampered stream cannot produce a labeling whose ancestor test, or
// document order where it keeps one, contradicts its tree: interval, float
// and compact ranges are non-empty and nest inside their parent's, with
// sibling ranges disjoint and in document order; prefix sibling codes are
// prefix-free, and rise in document order under OrderPreserving; Dewey
// sibling components rise; prime labels pass Labeling.Check. The fuzz
// target FuzzCodecUnmarshal holds every decoder to this.
func Unmarshal(r io.Reader) (labeling.Labeling, error) {
	head := make([]byte, len(Magic)+1)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(head[:len(Magic)]) != string(Magic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	tagLen := int(head[len(Magic)])
	tagBuf := make([]byte, tagLen)
	if _, err := io.ReadFull(r, tagBuf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	switch string(tagBuf) {
	case tagPrime:
		return prime.Unmarshal(r)
	case tagInterval:
		return interval.Unmarshal(r)
	case tagPrefix:
		return prefix.Unmarshal(r)
	case tagDewey:
		return prefix.UnmarshalDewey(r)
	case tagFloat:
		return floatlab.Unmarshal(r)
	case tagCompact:
		return compact.Unmarshal(r)
	default:
		return nil, fmt.Errorf("%w: unknown scheme tag %q", ErrBadFormat, string(tagBuf))
	}
}
