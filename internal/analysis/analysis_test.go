package analysis

import (
	"testing"
)

func runFixtureTest(t *testing.T, name string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	loader := NewLoader(".")
	mismatches, diags, err := CheckFixture(loader, "testdata/src/"+name, analyzers)
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	for _, m := range mismatches {
		t.Errorf("fixture %s: %s", name, m)
	}
	return diags
}

func TestHotpathFixture(t *testing.T) {
	diags := runFixtureTest(t, "hotpath", HotpathNoAlloc)
	if len(diags) < 10 {
		t.Errorf("expected the hotpath fixture to seed >= 10 findings, got %d", len(diags))
	}
}

func TestAtomicsFixture(t *testing.T) {
	runFixtureTest(t, "atomics", EpochAtomics)
}

func TestErrsTaxonomyFixture(t *testing.T) {
	runFixtureTest(t, "errstax", ErrsTaxonomy)
}

func TestDurableFormatFixture(t *testing.T) {
	runFixtureTest(t, "durablefmt", DurableFormat)
}

func TestDurableFormatStaleLock(t *testing.T) {
	runFixtureTest(t, "durablefmtstale", DurableFormat)
}

func TestUnusedFuncFixture(t *testing.T) {
	runFixtureTest(t, "unusedfunc", UnusedFunc)
}

func TestCleanFixtureAllAnalyzers(t *testing.T) {
	diags := runFixtureTest(t, "clean", All()...)
	if len(diags) != 0 {
		t.Errorf("clean fixture produced findings: %v", diags)
	}
}

// TestRepoClean is the gate the Makefile lint target re-runs from the
// command line: the whole module must produce zero findings.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader := NewLoader(".")
	pkgs, err := loader.LoadPatterns("repro/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}

// TestRacePkgsMatchesMakefile pins the RACE_PKGS list to the computed
// set of concurrency-relevant packages.
func TestRacePkgsMatchesMakefile(t *testing.T) {
	if testing.Short() {
		t.Skip("lists and parses the whole module")
	}
	diags, err := CheckRacePkgs("../../Makefile")
	if err != nil {
		t.Fatalf("race-pkgs: %v", err)
	}
	for _, d := range diags {
		t.Errorf("race-pkgs finding: %s", d)
	}
}

func TestIgnoreDirectiveRequiresJustification(t *testing.T) {
	ig := &ignoreDirective{analyzers: []string{"hotpath-noalloc"}}
	if ig.covers("hotpath-noalloc") {
		t.Error("unjustified ignore must not suppress")
	}
	ig.justified = true
	if !ig.covers("hotpath-noalloc") {
		t.Error("justified ignore must suppress its analyzer")
	}
	if ig.covers("epoch-atomics") {
		t.Error("ignore must not suppress other analyzers")
	}
	all := &ignoreDirective{analyzers: []string{"all"}, justified: true}
	if !all.covers("durable-format") {
		t.Error("'all' ignore must cover every analyzer")
	}
}
