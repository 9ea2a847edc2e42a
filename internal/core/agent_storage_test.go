package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/target"
)

// biggerSpec differs from threeStreamSpec in everything storage is sized
// by: more frames, a longer template, a fuzz field, one stream.
func biggerSpec(frames int) *TestSpec {
	return &TestSpec{
		Name: "bigger",
		Gen: GenSpec{Streams: []StreamSpec{{
			Name: "long", Template: goodFrame(200), Count: frames, RatePPS: 2e6,
			SeqLoc: FieldLoc{BitOff: 42 * 8, Bits: 32},
			Fuzz:   []FieldFuzz{{Loc: FieldLoc{BitOff: 26*8 + 16, Bits: 16}, Seed: 9, Boundaries: true}},
		}}},
		Check: CheckSpec{Rules: []Rule{{Name: "long-forwarded", Stream: "long", ExpectPort: 1}}},
	}
}

// configureRun is one validation on the agent itself.
func configureRun(t *testing.T, a *Agent, spec *TestSpec) *Report {
	t.Helper()
	if err := a.Configure(spec); err != nil {
		t.Fatal(err)
	}
	rep, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestConfigureReusesStorage: an agent hands its generator's storage from
// each spec to the next, and none of it shows. Whatever was configured
// before — fewer frames, more, longer ones, fuzzed ones — every report
// equals that of an agent that has run nothing else.
func TestConfigureReusesStorage(t *testing.T) {
	small, big := threeStreamSpec(512), biggerSpec(900)
	for _, kind := range []string{target.KindReference, target.KindSDNet} {
		reused := kindAgent(t, kind)
		for i, spec := range []*TestSpec{small, big, small} {
			got, want := configureRun(t, reused, spec), configureRun(t, kindAgent(t, kind), spec)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: run %d (%s) on a reused agent:\n got %+v\nwant %+v", kind, i, spec.Name, got, want)
			}
			if got.Injected == 0 || (kind == target.KindSDNet && spec == small) == got.Pass {
				t.Fatalf("%s: fixture: %s reported %v", kind, spec.Name, got)
			}
		}
	}
}

// TestRefusedConfigureKeepsPreviousSpec: a spec the generator refuses (a
// field outside its template) and one the checker refuses (a rule with
// no name) each leave the agent as it was, so the next run is the
// previous spec's, report for report.
func TestRefusedConfigureKeepsPreviousSpec(t *testing.T) {
	agent := kindAgent(t, target.KindReference)
	want := configureRun(t, agent, threeStreamSpec(256))

	hostileGen := biggerSpec(64)
	hostileGen.Gen.Streams[0].Fuzz[0].Loc = FieldLoc{BitOff: 1 << 20, Bits: 16}
	noRuleName := biggerSpec(64)
	noRuleName.Check.Rules[0].Name = ""
	for _, spec := range []*TestSpec{hostileGen, noRuleName} {
		if err := agent.Configure(spec); err == nil {
			t.Fatalf("Configure accepted %+v", spec)
		}
	}
	got, err := agent.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the run after two refused specs is not the accepted one's:\n got %+v\nwant %+v", got, want)
	}
}

// TestReportSurvivesNextRun: a report is its holder's. The agent resets
// its checker for the next run and hands the retained pointer out again
// through LastReport; neither may reach into a report already returned —
// not its drop stages, not its failure samples.
func TestReportSurvivesNextRun(t *testing.T) {
	agent := kindAgent(t, target.KindReference)
	tgt := agent.Device().Target()
	if err := agent.Configure(threeStreamSpec(256)); err != nil {
		t.Fatal(err)
	}
	// First fault: no route, so the good stream drops in the ingress
	// control and its rule fails, with samples saying so.
	if err := tgt.ClearTable("ipv4_lpm"); err != nil {
		t.Fatal(err)
	}
	first, err := agent.Run()
	if err != nil {
		t.Fatal(err)
	}
	kept := *first
	kept.DropStages = maps.Clone(first.DropStages)
	kept.Rules = slices.Clone(first.Rules)
	for i := range kept.Rules {
		kept.Rules[i].Samples = slices.Clone(kept.Rules[i].Samples)
	}

	// Second fault: a route out of the wrong port. The same rule fails
	// on the same frames, for another reason, and fewer frames drop.
	wrong := routeEntry()
	wrong.Args[1] = bitfield.New(2, 9)
	if err := tgt.InstallEntry(wrong); err != nil {
		t.Fatal(err)
	}
	second, err := agent.Run()
	if err != nil {
		t.Fatal(err)
	}
	rule := func(r *Report) RuleResult {
		return r.Rules[slices.IndexFunc(r.Rules, func(rr RuleResult) bool { return rr.Rule == "good-forwarded" })]
	}
	if a, b := rule(&kept), rule(second); len(a.Samples) != maxSamples || len(b.Samples) != maxSamples || a.Samples[0] == b.Samples[0] ||
		kept.DropStages["RouterIngress"] <= second.DropStages["RouterIngress"] {
		t.Fatalf("fixture: the two faults should fail one rule two ways:\n%+v %v\n%+v %v", a, kept.DropStages, b, second.DropStages)
	}
	if !reflect.DeepEqual(*first, kept) {
		t.Errorf("the first report changed under the second run:\n now  %+v\n was  %+v", *first, kept)
	}
	if agent.LastReport() != second {
		t.Error("LastReport is not the latest run's")
	}
}

// TestValidateAllocsPerRun pins what a validation allocates: a spec
// decoded, a generator and a checker lowered in the agent's storage, a
// report built and sent — per run, nothing per frame. The bound is the
// measured count rounded up to a multiple of 16: 72 on reference, 97 on
// smartnic (some 90 and 114 before the lowering; a generator and a
// checker built twice over, two slices a traced frame and a codec per
// payload made it some 4 800).
func TestValidateAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const frames, bound = 2048, 112
	spec := threeStreamSpec(frames)
	for _, kind := range []string{target.KindReference, target.KindSmartNIC} {
		ctl := Connect(kindAgent(t, kind))
		run := func() {
			if rep, err := ctl.RunTest(spec); err != nil || rep.Injected != frames {
				t.Fatalf("%s: %v %v", kind, rep, err)
			}
		}
		run() // the connection's type descriptions, the burst contexts, the arena
		if got := testing.AllocsPerRun(10, run); got > bound {
			t.Errorf("%s: %v allocs per %d-frame validation, want at most %d", kind, got, frames, bound)
		}
		ctl.Close()
	}
}

// TestConfigureRacesRun: Configure and Run serialise on the agent, so a
// host reconfiguring while a run is in flight (two controllers, a retry)
// gets whole runs of one spec or the other. Run it under -race.
func TestConfigureRacesRun(t *testing.T) {
	agent := kindAgent(t, target.KindReference)
	specs := []*TestSpec{threeStreamSpec(256), biggerSpec(300)}
	if err := agent.Configure(specs[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := agent.Configure(specs[i%2]); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		rep, err := agent.Run()
		if err != nil {
			t.Error(err)
		} else if rep.Injected != 256 && rep.Injected != 300 {
			t.Errorf("run %d injected %d frames: neither spec's", i, rep.Injected)
		}
	}
	wg.Wait()
}

// TestConfigureRefusesRuleOnMissingStream: a rule naming a stream the
// generator does not have would score nothing and pass; Configure
// refuses it, naming the rule and the stream, over the control wire too.
// A match-all rule names no stream and is still accepted.
func TestConfigureRefusesRuleOnMissingStream(t *testing.T) {
	spec := &TestSpec{
		Name: "typo",
		Gen: GenSpec{Streams: []StreamSpec{
			{Name: "good", Template: goodFrame(22), Count: 8},
			{Name: "bad", Template: badVersionFrame(), Count: 8},
		}},
		Check: CheckSpec{Rules: []Rule{
			{Name: "good-forwarded", Stream: "good", ExpectPort: 1},
			{Name: "typo-port", Stream: "goood", ExpectPort: 7},
		}},
	}
	agent := kindAgent(t, target.KindReference)
	ctl := Connect(agent)
	defer ctl.Close()
	if err := agent.Configure(spec); err == nil || !strings.Contains(err.Error(), `rule "typo-port": no stream "goood"`) {
		t.Fatalf("Configure: %v, want the rule and the stream named", err)
	}
	if rep, err := ctl.RunTest(spec); err == nil {
		t.Fatalf("RunTest of a rule on a missing stream reported %v", rep)
	}
	spec.Check.Rules[1].Stream = ""
	if rep, err := ctl.RunTest(spec); err != nil || rep.Pass || len(rep.Rules) != 2 {
		t.Fatalf("a match-all rule: %v %v, want a run that fails it", rep, err)
	}
}

// TestSameNameRulesKeepSpecOrder: two rules sharing a name, on two
// streams, come back in spec order on every run — the report's bytes
// depend on nothing but the spec and the device.
func TestSameNameRulesKeepSpecOrder(t *testing.T) {
	spec := &TestSpec{
		Name: "twins",
		Gen: GenSpec{Streams: []StreamSpec{
			{Name: "good", Template: goodFrame(22), Count: 10},
			{Name: "bad", Template: badVersionFrame(), Count: 10},
		}},
		Check: CheckSpec{Rules: []Rule{
			{Name: "d", Stream: "good", ExpectPort: 1},
			{Name: "d", Stream: "bad", ExpectPort: 1},
			{Name: "c", ExpectPort: -1},
		}},
	}
	ctl := Connect(kindAgent(t, target.KindReference))
	defer ctl.Close()
	orders := map[string]int{}
	for i := 0; i < 100; i++ {
		rep, err := ctl.RunTest(spec)
		if err != nil {
			t.Fatal(err)
		}
		order := ""
		for _, rr := range rep.Rules {
			order += fmt.Sprintf("%s:%d/%d ", rr.Rule, rr.Pass, rr.Fail)
		}
		orders[order]++
	}
	const want = "c:10/10 d:10/0 d:0/10 "
	if len(orders) != 1 || orders[want] != 100 {
		t.Fatalf("100 runs gave %d orders, want 100 of\n%s\ngot %v", len(orders), want, orders)
	}
}
