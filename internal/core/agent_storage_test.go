package core

import (
	"maps"
	"reflect"
	"slices"
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
// equals that of an agent that has run nothing else, with the frames in
// the agent's own arena and in an extent of a shared one (which holds
// the small spec and sends the big one back to the private slab).
func TestConfigureReusesStorage(t *testing.T) {
	small, big := threeStreamSpec(512), biggerSpec(900)
	for _, kind := range []string{target.KindReference, target.KindSDNet} {
		for _, shared := range []bool{false, true} {
			var sa SharedArena
			sa.Reset(1 << 16)
			agent := func() *Agent {
				a := kindAgent(t, kind)
				if shared {
					a.UseArena(&sa, 512*64)
				}
				return a
			}
			reused := agent()
			for i, spec := range []*TestSpec{small, big, small} {
				got, want := configureRun(t, reused, spec), configureRun(t, agent(), spec)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s shared=%v: run %d (%s) on a reused agent:\n got %+v\nwant %+v", kind, shared, i, spec.Name, got, want)
				}
				if got.Injected == 0 || (kind == target.KindSDNet && spec == small) == got.Pass {
					t.Fatalf("%s: fixture: %s reported %v", kind, spec.Name, got)
				}
			}
			if shared != (sa.Used() > 0) {
				t.Fatalf("shared=%v: %d bytes of the shared arena reserved", shared, sa.Used())
			}
		}
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
// decoded, a generator and a checker planned, a report built and sent —
// per run, nothing per frame. 256 a run is 0.125 a frame; a generator
// and a checker built twice over, two slices a traced frame and a codec
// per payload made it some 4 800.
func TestValidateAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const frames = 2048
	spec := threeStreamSpec(frames)
	for _, kind := range []string{target.KindReference, target.KindSmartNIC} {
		ctl := Connect(kindAgent(t, kind))
		run := func() {
			if rep, err := ctl.RunTest(spec); err != nil || rep.Injected != frames {
				t.Fatalf("%s: %v %v", kind, rep, err)
			}
		}
		run() // the connection's type descriptions, the burst contexts, the arena
		if got := testing.AllocsPerRun(10, run); got > 256 {
			t.Errorf("%s: %v allocs per %d-frame validation, want at most 256", kind, got, frames)
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
