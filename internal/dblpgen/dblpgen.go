// Package dblpgen generates synthetic DBLP-Journals documents with the
// structural properties the paper's experiments depend on: article
// elements with a *varying* number of author sub-elements (repeated and
// occasionally missing — the heterogeneity motivating the paper),
// authors shared across articles with a Zipf-like productivity skew,
// and the usual bibliographic clutter (title, year, journal, volume,
// pages) that a projection must be able to ignore.
//
// The paper loaded the Journals portion of DBLP: 4.6 million nodes in
// about 100 MB. Generation is deterministic for a given Config, so
// experiments are reproducible; Config.Articles scales the database
// from unit-test size to the paper's full size (see FullPaperScale).
package dblpgen

import (
	"fmt"
	"math/rand"

	"timber/internal/storage"
	"timber/internal/xmltree"
)

// Config parameterizes generation.
type Config struct {
	// Articles is the number of article elements.
	Articles int
	// AuthorPool is the number of distinct author names; authors are
	// assigned to articles with a Zipf-like skew (a few prolific
	// authors, a long tail). Defaults to Articles/2.
	AuthorPool int
	// MaxAuthorsPerArticle bounds the authors of one article (min 0 —
	// some articles have no author element at all, as the paper's
	// introduction notes). Defaults to 4.
	MaxAuthorsPerArticle int
	// NoAuthorFraction is the per-mille rate of author-less articles.
	// Defaults to 5 (0.5%).
	NoAuthorFraction int
	// WithInstitutions nests an institution element inside each author,
	// enabling the introduction's group-by-institution queries.
	WithInstitutions bool
	// Institutions is the number of distinct institutions (default 50).
	Institutions int
	// Seed drives the deterministic generator.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.AuthorPool == 0 {
		c.AuthorPool = c.Articles/2 + 1
	}
	if c.MaxAuthorsPerArticle == 0 {
		c.MaxAuthorsPerArticle = 4
	}
	if c.NoAuthorFraction == 0 {
		c.NoAuthorFraction = 5
	}
	if c.Institutions == 0 {
		c.Institutions = 50
	}
	return c
}

// FullPaperScale returns the configuration approximating the paper's
// dataset: ~4.6 million nodes. With ~10.5 nodes per article (authors
// plus six metadata children plus the article node), that is about
// 440,000 articles.
func FullPaperScale() Config {
	return Config{Articles: 440_000, Seed: 2002}
}

// Stats summarizes a generated document.
type Stats struct {
	Articles        int
	AuthorElements  int
	DistinctAuthors int
	Nodes           int
}

func (s Stats) String() string {
	return fmt.Sprintf("%d articles, %d author elements (%d distinct), %d nodes",
		s.Articles, s.AuthorElements, s.DistinctAuthors, s.Nodes)
}

// Generate builds the document tree. The root is tagged doc_root, as
// the plan translator expects.
func Generate(cfg Config) (*xmltree.Node, Stats) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(cfg.AuthorPool-1))

	root := xmltree.E("doc_root")
	stats := Stats{Articles: cfg.Articles}
	used := make(map[int]bool, cfg.AuthorPool)

	for i := 0; i < cfg.Articles; i++ {
		art := xmltree.E("article")
		nAuthors := rng.Intn(cfg.MaxAuthorsPerArticle) + 1
		if rng.Intn(1000) < cfg.NoAuthorFraction {
			nAuthors = 0
		}
		seen := map[int]bool{}
		for a := 0; a < nAuthors; a++ {
			id := int(zipf.Uint64())
			if seen[id] {
				continue // keep author values distinct within an article
			}
			seen[id] = true
			used[id] = true
			au := xmltree.Elem("author", authorName(id))
			if cfg.WithInstitutions {
				au.Append(xmltree.Elem("institution", institutionName(id%cfg.Institutions)))
			}
			art.Append(au)
			stats.AuthorElements++
		}
		art.Append(
			xmltree.Elem("title", makeTitle(rng)),
			xmltree.Elem("year", fmt.Sprintf("%d", 1970+rng.Intn(33))),
			xmltree.Elem("journal", journals[rng.Intn(len(journals))]),
			xmltree.Elem("volume", fmt.Sprintf("%d", 1+rng.Intn(40))),
			xmltree.Elem("pages", fmt.Sprintf("%d-%d", 1+rng.Intn(400), 401+rng.Intn(400))),
			xmltree.Elem("ee", fmt.Sprintf("db/journals/x/%d.html", i)),
		)
		root.Append(art)
	}
	stats.DistinctAuthors = len(used)
	stats.Nodes = root.Size()
	return root, stats
}

// GenerateToDB generates and loads the document into the database.
func GenerateToDB(db *storage.DB, cfg Config) (Stats, error) {
	root, stats := Generate(cfg)
	if _, err := db.LoadDocument("dblp-journals.xml", root); err != nil {
		return Stats{}, err
	}
	return stats, nil
}

// authorName renders a stable, human-looking author name for an ID.
func authorName(id int) string {
	first := firstNames[id%len(firstNames)]
	last := lastNames[(id/len(firstNames))%len(lastNames)]
	return fmt.Sprintf("%s %s %d", first, last, id)
}

func institutionName(id int) string {
	return fmt.Sprintf("University %d", id)
}

// makeTitle samples a 3–8 word title; roughly 2% contain the word
// "Transaction", so the Figure 1 selection pattern has matches.
func makeTitle(rng *rand.Rand) string {
	n := 3 + rng.Intn(6)
	title := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			title += " "
		}
		title += titleWords[rng.Intn(len(titleWords))]
	}
	if rng.Intn(50) == 0 {
		title += " Transaction Management"
	}
	return title
}

var firstNames = []string{
	"Ada", "Alan", "Barbara", "Claude", "Divesh", "Edsger", "Grace",
	"Hector", "Jagadish", "Jim", "Laks", "Leslie", "Michael", "Moshe",
	"Pat", "Raghu", "Serge", "Stelios", "Yuqing", "Zohar",
}

var lastNames = []string{
	"Al-Khalifa", "Codd", "DeWitt", "Garcia-Molina", "Gray", "Hopper",
	"Jagadish", "Lakshmanan", "Lovelace", "Nierman", "Paparizos",
	"Silberschatz", "Srivastava", "Stonebraker", "Thompson", "Ullman",
	"Vardi", "Widom", "Wu", "Zaniolo",
}

var titleWords = []string{
	"Adaptive", "Algebra", "Algorithms", "Approximate", "Caching",
	"Concurrency", "Containment", "Databases", "Distributed",
	"Efficient", "Estimation", "Evaluation", "Grouping", "Indexing",
	"Integration", "Joins", "Locking", "Logic", "Management", "Mining",
	"Models", "Optimization", "Parallel", "Patterns", "Performance",
	"Processing", "Queries", "Recovery", "Relational", "Scalable",
	"Schemas", "Semantics", "Semistructured", "Storage", "Streams",
	"Structural", "Systems", "Trees", "Views", "XML",
}

var journals = []string{
	"TODS", "VLDB Journal", "SIGMOD Record", "TKDE", "Information Systems",
	"Data Engineering Bulletin", "Acta Informatica", "JACM",
}
