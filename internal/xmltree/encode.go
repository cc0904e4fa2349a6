package xmltree

import (
	"io"
	"slices"
	"sync"
	"unicode/utf8"
)

// Buffer is a pooled byte buffer holding one encoded document. Release
// returns it to the pool; the bytes must not be used afterwards.
type Buffer struct{ b []byte }

// Bytes returns the encoded document. The slice is valid until Release.
func (b *Buffer) Bytes() []byte { return b.b }

// Release returns the buffer to the pool. Buffers that grew past
// maxPooledBuffer are dropped instead, so one large envelope does not
// stay resident behind the pool.
func (b *Buffer) Release() {
	if cap(b.b) <= maxPooledBuffer {
		bufPool.Put(b)
	}
}

const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(Buffer) }}

// EncodeBuffer serializes the subtree rooted at n into a pooled buffer,
// for callers that need the length before the first byte goes out (HTTP
// handlers setting Content-Length). The caller must Release it.
func (n *Node) EncodeBuffer() *Buffer {
	buf := bufPool.Get().(*Buffer)
	buf.b = n.appendXML(buf.b[:0])
	return buf
}

// Encode serializes the subtree rooted at n as XML to w in one Write.
func (n *Node) Encode(w io.Writer) error {
	buf := n.EncodeBuffer()
	_, err := w.Write(buf.b)
	buf.Release()
	return err
}

// String returns the XML serialization of the subtree rooted at n.
func (n *Node) String() string {
	buf := n.EncodeBuffer()
	s := string(buf.b)
	buf.Release()
	return s
}

// appendXML is the one writer, in the compact form: no indentation and
// no whitespace between elements, attributes in sorted order, `<x/>` for
// an element with neither text nor children, and XML escaping only (see
// appendEscaped). Parse trims each text run, so an indented document of
// an older writer reads as the same tree.
func (n *Node) appendXML(dst []byte) []byte {
	dst = append(dst, '<')
	dst = append(dst, n.Name...)
	switch len(n.Attrs) {
	case 0:
	case 1:
		for k, v := range n.Attrs {
			dst = appendAttr(dst, k, v)
		}
	default:
		// Sorted so equal trees have equal bytes. The array keeps the
		// keys of every envelope the tier emits off the heap.
		var arr [8]string
		keys := arr[:0]
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			dst = appendAttr(dst, k, n.Attrs[k])
		}
	}
	if len(n.Children) == 0 && n.Text == "" {
		return append(dst, '/', '>')
	}
	dst = append(dst, '>')
	dst = appendEscaped(dst, n.Text)
	for _, c := range n.Children {
		dst = c.appendXML(dst)
	}
	dst = append(dst, '<', '/')
	dst = append(dst, n.Name...)
	return append(dst, '>')
}

func appendAttr(dst []byte, k, v string) []byte {
	dst = append(dst, ' ')
	dst = append(dst, k...)
	dst = append(dst, '=', '"')
	dst = appendEscaped(dst, v)
	return append(dst, '"')
}

// appendEscaped appends s with the escaping of encoding/xml.EscapeText:
// the five markup characters and tab/newline/carriage return become
// entities, and anything outside the XML character range (or invalid
// UTF-8) becomes U+FFFD. Text and attribute values share it, so a
// quoted attribute never needs more than this.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		var esc string
		width := 1
		switch {
		case c >= utf8.RuneSelf:
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if inCharRange(r) && !(r == utf8.RuneError && width == 1) {
				i += width
				continue
			}
			esc = "\uFFFD"
		case c == '"':
			esc = "&#34;"
		case c == '\'':
			esc = "&#39;"
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '\t':
			esc = "&#x9;"
		case c == '\n':
			esc = "&#xA;"
		case c == '\r':
			esc = "&#xD;"
		case c < 0x20:
			esc = "\uFFFD"
		default:
			i++
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// inCharRange reports whether r is in the XML 1.0 Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
