package dblpgen

import (
	"strings"
	"testing"

	"timber/internal/storage"
	"timber/internal/xmltree"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Articles: 200, Seed: 7}
	a, sa := Generate(cfg)
	b, sb := Generate(cfg)
	if !xmltree.Equal(a, b) {
		t.Error("same config must generate identical trees")
	}
	if sa != sb {
		t.Errorf("stats differ: %v vs %v", sa, sb)
	}
	c, _ := Generate(Config{Articles: 200, Seed: 8})
	if xmltree.Equal(a, c) {
		t.Error("different seeds should generate different trees")
	}
}

func TestGenerateShape(t *testing.T) {
	root, stats := Generate(Config{Articles: 500, Seed: 1})
	if root.Tag != "doc_root" {
		t.Errorf("root = %s", root.Tag)
	}
	arts := root.ChildrenTagged("article")
	if len(arts) != 500 {
		t.Fatalf("articles = %d", len(arts))
	}
	if stats.Articles != 500 || stats.Nodes != root.Size() {
		t.Errorf("stats = %+v", stats)
	}

	multi, none := 0, 0
	sharedAuthors := map[string]int{}
	for _, art := range arts {
		aus := art.ChildrenTagged("author")
		if len(aus) > 1 {
			multi++
		}
		if len(aus) == 0 {
			none++
		}
		seen := map[string]bool{}
		for _, au := range aus {
			if seen[au.Content] {
				t.Fatalf("duplicate author %q within one article", au.Content)
			}
			seen[au.Content] = true
			sharedAuthors[au.Content]++
		}
		if art.Child("title") == nil || art.Child("year") == nil || art.Child("journal") == nil {
			t.Fatal("article missing metadata children")
		}
	}
	if multi == 0 {
		t.Error("no multi-author articles — grouping overlap untested")
	}
	// Zipf skew: at least one author appears in many articles.
	max := 0
	for _, n := range sharedAuthors {
		if n > max {
			max = n
		}
	}
	if max < 5 {
		t.Errorf("most prolific author has %d articles; expected Zipf head", max)
	}
	if stats.DistinctAuthors >= stats.AuthorElements {
		t.Error("authors should repeat across articles")
	}
}

func TestGenerateInstitutions(t *testing.T) {
	root, _ := Generate(Config{Articles: 100, Seed: 3, WithInstitutions: true, Institutions: 5})
	insts := root.Find("institution")
	if len(insts) == 0 {
		t.Fatal("no institutions generated")
	}
	distinct := map[string]bool{}
	for _, n := range insts {
		distinct[n.Content] = true
		if n.Parent.Tag != "author" {
			t.Fatal("institution must nest inside author")
		}
	}
	if len(distinct) > 5 {
		t.Errorf("distinct institutions = %d, want <= 5", len(distinct))
	}
}

func TestGenerateTransactionTitles(t *testing.T) {
	root, _ := Generate(Config{Articles: 2000, Seed: 9})
	found := 0
	for _, ti := range root.Find("title") {
		if strings.Contains(ti.Content, "Transaction") {
			found++
		}
	}
	if found == 0 {
		t.Error("no Transaction titles; the Figure 1 pattern would have no matches")
	}
	if found > 200 {
		t.Errorf("Transaction titles = %d, should be rare", found)
	}
}

func TestGenerateToDB(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 1024, PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stats, err := GenerateToDB(db, Config{Articles: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot()
	defer sn.Close()
	posts, err := storage.Drain(sn.TagStream("article"))
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != stats.Articles {
		t.Errorf("stored articles = %d, want %d", len(posts), stats.Articles)
	}
	aus, err := storage.Drain(sn.TagStream("author"))
	if err != nil {
		t.Fatal(err)
	}
	if len(aus) != stats.AuthorElements {
		t.Errorf("stored authors = %d, want %d", len(aus), stats.AuthorElements)
	}
	if s := stats.String(); !strings.Contains(s, "articles") {
		t.Error("stats string")
	}
}

func TestFullPaperScaleConfig(t *testing.T) {
	cfg := FullPaperScale()
	if cfg.Articles < 400_000 {
		t.Errorf("full scale articles = %d", cfg.Articles)
	}
	// Sanity check the node estimate on a sample: ~10+ nodes/article.
	_, stats := Generate(Config{Articles: 1000, Seed: cfg.Seed})
	perArticle := float64(stats.Nodes) / 1000
	if perArticle < 8 || perArticle > 13 {
		t.Errorf("nodes per article = %.1f, want ~10.5 to hit 4.6M at full scale", perArticle)
	}
}
