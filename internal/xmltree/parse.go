package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Parse reads a single XML document from r and returns its root element.
// Character data directly inside an element is trimmed and accumulated
// into the element's Content; processing instructions, comments and
// directives are ignored. The returned tree is not numbered; call Number
// before using interval-based operations.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var cur *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Tag: t.Name.Local}
			for _, a := range t.Attr {
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if cur == nil {
				if root != nil {
					return nil, errors.New("xmltree: parse: multiple root elements")
				}
				root = n
			} else {
				cur.Append(n)
			}
			cur = n
		case xml.EndElement:
			if cur == nil {
				return nil, errors.New("xmltree: parse: unbalanced end element")
			}
			cur = cur.Parent
		case xml.CharData:
			if cur != nil {
				text := strings.TrimSpace(string(t))
				if text != "" {
					if cur.Content != "" {
						cur.Content += " "
					}
					cur.Content += text
				}
			}
		}
	}
	if root == nil {
		return nil, errors.New("xmltree: parse: empty document")
	}
	if cur != nil {
		return nil, errors.New("xmltree: parse: unterminated document")
	}
	return root, nil
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }

// MustParse parses an XML document held in a string and panics on error.
// It is intended for tests and package examples where the input is a
// literal known to be well-formed.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// Serialize writes the subtree rooted at n as indented XML. Content is
// written before any child elements, which round-trips every tree this
// package produces (mixed-content interleaving is not preserved; see the
// package comment).
func Serialize(w io.Writer, n *Node) error {
	sw := &stickyWriter{w: w}
	sw.sw, _ = w.(io.StringWriter)
	writeIndented(sw, n, 0)
	return sw.err
}

// SerializeString renders the subtree rooted at n as indented XML.
func SerializeString(n *Node) string {
	var b strings.Builder
	b.Grow(serializedSize(n, 0))
	_ = Serialize(&b, n)
	return b.String()
}

// serializedSize is the length of n's serialization at depth when no
// character needs escaping, so SerializeString grows its builder once.
func serializedSize(n *Node, depth int) int {
	size := 2*depth + 1 + len(n.Tag) // indent, "<", tag
	for _, a := range n.Attrs {
		size += len(a.Name) + len(a.Value) + 4 // ` name="value"`
	}
	switch {
	case n.Content == "" && len(n.Children) == 0:
		return size + 3 // "/>\n"
	case len(n.Children) == 0:
		return size + len(n.Content) + len(n.Tag) + 5 // ">" content "</" tag ">\n"
	}
	size += 2 // ">\n"
	if n.Content != "" {
		size += 2*(depth+1) + len(n.Content) + 1
	}
	for _, c := range n.Children {
		size += serializedSize(c, depth+1)
	}
	return size + 2*depth + len(n.Tag) + 4 // indent, "</", tag, ">\n"
}

// stickyWriter keeps the first write error and drops every write after
// it. sw is w's io.StringWriter, resolved once per Serialize rather than
// per fragment; nil when w has none.
type stickyWriter struct {
	w   io.Writer
	sw  io.StringWriter
	err error
}

func (s *stickyWriter) WriteString(str string) {
	switch {
	case s.err != nil:
	case s.sw != nil:
		_, s.err = s.sw.WriteString(str)
	default:
		_, s.err = s.w.Write([]byte(str))
	}
}

// spaces holds the indentation of the first 32 levels; deeper levels
// are written from it in pieces.
const spaces = "                                                                "

// indent writes the two spaces per level that precede a line at depth.
func (s *stickyWriter) indent(depth int) {
	for n := 2 * depth; n > 0; n -= len(spaces) {
		s.WriteString(spaces[:min(n, len(spaces))])
	}
}

func writeIndented(w *stickyWriter, n *Node, depth int) {
	w.indent(depth)
	w.WriteString("<")
	w.WriteString(n.Tag)
	for _, a := range n.Attrs {
		w.WriteString(" ")
		w.WriteString(a.Name)
		w.WriteString(`="`)
		w.WriteString(escapeAttr(a.Value))
		w.WriteString(`"`)
	}
	if n.Content == "" && len(n.Children) == 0 {
		w.WriteString("/>\n")
		return
	}
	w.WriteString(">")
	if len(n.Children) == 0 {
		w.WriteString(escapeText(n.Content))
		w.WriteString("</")
		w.WriteString(n.Tag)
		w.WriteString(">\n")
		return
	}
	w.WriteString("\n")
	if n.Content != "" {
		w.indent(depth + 1)
		w.WriteString(escapeText(n.Content))
		w.WriteString("\n")
	}
	for _, c := range n.Children {
		writeIndented(w, c, depth+1)
	}
	w.indent(depth)
	w.WriteString("</")
	w.WriteString(n.Tag)
	w.WriteString(">\n")
}

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func escapeText(s string) string { return textEscaper.Replace(s) }
func escapeAttr(s string) string { return attrEscaper.Replace(s) }
