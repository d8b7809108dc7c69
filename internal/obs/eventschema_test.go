package obs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEventSchema cross-checks the journal's event registry against
// the tree's emission sites and DESIGN.md: every emitted type is
// registered, every registered type is emitted and documented, and
// every wire name appears in DESIGN.md §7.3.
func TestEventSchema(t *testing.T) {
	const root = "../.."
	emitted, err := scanEmissions(root)
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eventSchemaViolations(EventTypes(), emitted, string(design)) {
		t.Error(v)
	}
}

// eventSchemaViolations lists every way the registry, the emission
// sites (event constant name → files referencing it) and the design
// text disagree.
func eventSchemaViolations(registry []EventTypeInfo, emitted map[string][]string, design string) []string {
	known := map[string]bool{"EvNone": true} // the zero value is never emitted
	for _, info := range registry {
		known[info.ConstName] = true
	}
	var out []string
	for constName, sites := range emitted {
		if !known[constName] {
			out = append(out, "obs."+constName+" is emitted ("+strings.Join(sites, ", ")+") but not registered in eventInfos")
		}
	}
	for _, info := range registry {
		if len(emitted[info.ConstName]) == 0 {
			out = append(out, "obs."+info.ConstName+" ("+info.Name+") is registered but never emitted")
		}
		if strings.TrimSpace(info.Doc) == "" {
			out = append(out, "obs."+info.ConstName+" ("+info.Name+") has no documentation line")
		}
		if !strings.Contains(design, info.Name) {
			out = append(out, "event "+info.Name+" is not documented in DESIGN.md")
		}
	}
	return out
}

var emitRE = regexp.MustCompile(`\bobs\.(Ev[A-Z][A-Za-z0-9]*)\b`)

// scanEmissions maps event constant names to the files that reference
// them as obs.EvXxx, over every non-test Go file under root outside
// hidden and testdata directories. This
// package references its own constants unqualified, so the registry
// does not count as an emission site. Line comments are dropped first,
// so placeholder names in documentation don't count either.
func scanEmissions(root string) (map[string][]string, error) {
	emitted := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip .git, build caches and other hidden directories.
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, line := range strings.Split(string(data), "\n") {
			if i := strings.Index(line, "//"); i >= 0 {
				line = line[:i]
			}
			for _, m := range emitRE.FindAllStringSubmatch(line, -1) {
				if sites := emitted[m[1]]; len(sites) == 0 || sites[len(sites)-1] != rel {
					emitted[m[1]] = append(sites, rel)
				}
			}
		}
		return nil
	})
	return emitted, err
}

// TestEventSchemaViolations: each of the four failure classes is
// reported, and a consistent schema reports none.
func TestEventSchemaViolations(t *testing.T) {
	good := EventTypeInfo{ConstName: "EvGood", Name: "good_event", Doc: "Documented."}
	cases := []struct {
		name     string
		registry []EventTypeInfo
		emitted  map[string][]string
		design   string
		want     string // substring of the only violation; "" = clean
	}{
		{"consistent", []EventTypeInfo{good}, map[string][]string{"EvGood": {"a.go"}}, "good_event", ""},
		{"emitted but unregistered", []EventTypeInfo{good},
			map[string][]string{"EvGood": {"a.go"}, "EvStray": {"b.go"}}, "good_event", "obs.EvStray is emitted (b.go) but not registered"},
		{"registered but never emitted", []EventTypeInfo{good}, map[string][]string{}, "good_event", "registered but never emitted"},
		{"undocumented", []EventTypeInfo{{ConstName: "EvGood", Name: "good_event", Doc: " "}},
			map[string][]string{"EvGood": {"a.go"}}, "good_event", "has no documentation line"},
		{"missing from DESIGN.md", []EventTypeInfo{good}, map[string][]string{"EvGood": {"a.go"}}, "other_event", "not documented in DESIGN.md"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := eventSchemaViolations(tc.registry, tc.emitted, tc.design)
			switch {
			case tc.want == "" && len(got) != 0:
				t.Errorf("violations = %q, want none", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Errorf("violations = %q, want one mentioning %q", got, tc.want)
			}
		})
	}
}
