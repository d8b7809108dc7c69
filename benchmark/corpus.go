package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strings"

	"timber/internal/dblpgen"
	"timber/internal/xmltree"
)

// The harness keeps its own copies of every query text and pattern
// tree, so that reshaping internal/bench or the CLIs cannot change
// what is measured. The pinned digests in pins.go fail the run when
// one of them, or the generator behind the corpora, drifts.

// queryTitles is the paper's Query 1 (Sec. 1): per author, the titles
// of that author's articles. Experiment E1 of Sec. 6.
const queryTitles = `
FOR $a IN distinct-values(document("bib.xml")//author)
RETURN
<authorpubs>
  {$a}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $a = $b/author
    RETURN $b/title
  }
</authorpubs>`

// queryCount is the Sec. 6 variant returning only the number of
// titles per author. Experiment E2.
const queryCount = `
FOR $a IN distinct-values(document("bib.xml")//author)
LET $t := document("bib.xml")//article[author = $a]/title
RETURN
<authorpubs>
  {$a} {count($t)}
</authorpubs>`

// resultTag is the element both queries construct; the serve workload
// splits a response's concatenated trees on its closing tag.
const resultTag = "authorpubs"

// The three raw pattern trees of twig_patterns, in cycle order.
const (
	// patChain is a sparse four-level chain: only one document in
	// eight holds a <section>, so a matcher that aligns streams can
	// skip seven documents in eight without decoding them.
	patChain = `$1 [tag=doc_root]
  ad $2 [tag=article]
    ad $3 [tag=section]
      pc $4 [tag=author]`
	// patBranch is satisfied by every article of every document — no
	// skipping possible, path solutions must be merged.
	patBranch = `$1 [tag=article]
  pc $2 [tag=title]
  pc $3 [tag=author]`
	// patPred is the branch with a value predicate on one leaf, which
	// the matchers serve from the value index.
	patPred = `$1 [tag=article]
  pc $2 [tag=title]
  pc $3 [tag=author & content="A7"]`
)

// patternDef names one pattern of the cycle; the name is the middle
// part of its per-layer metric names (match_ms_<name>_<matcher>).
type patternDef struct {
	Name string
	Text string
}

var twigPatterns = []patternDef{
	{"chain", patChain},
	{"branch", patBranch},
	{"pred", patPred},
}

// textsDigest fingerprints every query and pattern text the harness
// runs.
func textsDigest() string {
	h := sha256.New()
	for _, s := range []string{queryTitles, queryCount, patChain, patBranch, patPred} {
		fmt.Fprintf(h, "%d:%s;", len(s), s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// corpus is a generated set of documents plus the facts the result
// file records about it.
type corpus struct {
	Names []string
	Docs  []*xmltree.Node
	corpusDigest
}

// corpusDigest identifies a generated corpus: a later change that
// alters dblpgen, the twig generator or a size shows up here.
type corpusDigest struct {
	Documents int    `json:"documents"`
	Nodes     int    `json:"nodes"`
	XMLBytes  int64  `json:"xml_bytes"`
	XMLSHA256 string `json:"xml_sha256"`
}

func (c *corpus) seal() {
	h := sha256.New()
	cw := &countingHash{h: h}
	for _, d := range c.Docs {
		c.Nodes += d.Size()
		// The sha256 writer never fails; a malformed tree would fail
		// the load that follows.
		_ = xmltree.Serialize(cw, d)
	}
	c.Documents = len(c.Docs)
	c.XMLBytes = cw.n
	c.XMLSHA256 = hex.EncodeToString(h.Sum(nil))
}

type countingHash struct {
	h hash.Hash
	n int64
}

func (c *countingHash) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.h.Write(p)
}

// dblpCorpus is the single-document synthetic DBLP-Journals corpus of
// the query workloads.
func dblpCorpus(articles int, seed int64) *corpus {
	root, _ := dblpgen.Generate(dblpgen.Config{Articles: articles, Seed: seed})
	c := &corpus{Names: []string{"dblp-journals.xml"}, Docs: []*xmltree.Node{root}}
	c.seal()
	return c
}

// twigChainEvery is the share of twig documents that carry the deep
// chain: one in eight.
const twigChainEvery = 8

// twigCorpus is the multi-document corpus of twig_patterns: every
// document has articles with a title and one to three authors drawn
// from 97 names; in one document of eight, every fourth article also
// has a <section> holding an author, which is what patChain matches.
func twigCorpus(docs, articlesPerDoc int, seed int64) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{}
	for d := 0; d < docs; d++ {
		root := xmltree.E("doc_root")
		for a := 0; a < articlesPerDoc; a++ {
			art := xmltree.E("article")
			art.Append(xmltree.Elem("title", fmt.Sprintf("T%d-%d", d, a)))
			for k := rng.Intn(3); k >= 0; k-- {
				art.Append(xmltree.Elem("author", fmt.Sprintf("A%d", rng.Intn(97))))
			}
			if d%twigChainEvery == 0 && a%4 == 0 {
				art.Append(xmltree.E("section", xmltree.Elem("author", fmt.Sprintf("S%d", rng.Intn(13)))))
			}
			root.Append(art)
		}
		c.Names = append(c.Names, fmt.Sprintf("twig%d.xml", d))
		c.Docs = append(c.Docs, root)
	}
	c.seal()
	return c
}

// ingestAuthorPrefix marks the authors only ingested documents carry,
// so that query results can be compared with the quiesced reference
// after dropping their groups.
const ingestAuthorPrefix = "zz-ingest "

// ingestArticles is the size of one ingested document.
const ingestArticles = 5

func ingestName(k int) string   { return fmt.Sprintf("ingest-%06d.xml", k) }
func ingestAuthor(k int) string { return fmt.Sprintf("%s%06d", ingestAuthorPrefix, k) }

// ingestDoc renders the k-th ingested document: a handful of articles
// by one author no base document mentions.
func ingestDoc(k int) *xmltree.Node {
	root := xmltree.E("doc_root")
	for a := 0; a < ingestArticles; a++ {
		root.Append(xmltree.E("article",
			xmltree.Elem("author", ingestAuthor(k)),
			xmltree.Elem("title", fmt.Sprintf("Ingested %d part %d", k, a)),
			xmltree.Elem("year", "2002"),
		))
	}
	return root
}

func ingestXML(k int) string { return xmltree.SerializeString(ingestDoc(k)) }

// isIngestGroup reports whether a serialized result tree is keyed by
// an ingest-only author.
func isIngestGroup(tree string) bool {
	return strings.Contains(tree, ingestAuthorPrefix)
}
