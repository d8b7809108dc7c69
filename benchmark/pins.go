package main

import "fmt"

// pinnedSeed is the seed whose corpora are pinned below. At this seed
// and scale 1 a run fails when a generated corpus or a text differs
// from what the baseline was recorded on, so that a later change
// cannot alter a workload by accident; another seed or scale has
// nothing to compare with and is not checked.
const pinnedSeed = 2002

// pinnedTexts is textsDigest() of the query and pattern texts in
// corpus.go.
const pinnedTexts = "6f804a05977556ba16843d7b2316a312ec36d8c4b31f94f17264beffdbc62480"

// pinnedCorpora are the corpora of pinnedSeed at scale 1. The two
// query workloads share one corpus.
var pinnedCorpora = map[string]corpusDigest{
	wlE1:    pinnedDBLP12k,
	wlE2:    pinnedDBLP12k,
	wlTwig:  {Documents: 32, Nodes: 32575, XMLBytes: 823977, XMLSHA256: "fd8e657289f255b82096b71dae9e90674f52033db0627751ee7582bb6563dfd5"},
	wlServe: {Documents: 1, Nodes: 37518, XMLBytes: 1344207, XMLSHA256: "bc2381f0a4bc78e3f768e6ccf52e320bea53840c9892c25068875a2b58f62891"},
}

var pinnedDBLP12k = corpusDigest{Documents: 1, Nodes: 112763, XMLBytes: 4046849, XMLSHA256: "0e1f0f6a9faae7bd8debdbaffa11ea36c70f766578c7acf46c4539c495ee22f7"}

func checkPins(workload string, cfg config, got corpusDigest) error {
	if cfg.seed != pinnedSeed || cfg.scale != 1 {
		return nil
	}
	if t := textsDigest(); t != pinnedTexts {
		return fmt.Errorf("a query or pattern text changed: digest %s, pinned %s (if intended, update pins.go and record a new baseline)", t, pinnedTexts)
	}
	if want := pinnedCorpora[workload]; got != want {
		return fmt.Errorf("%s: the corpus for seed %d drifted: got %+v, pinned %+v (if intended, update pins.go and record a new baseline)", workload, pinnedSeed, got, want)
	}
	return nil
}
