package adaptive

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/zstd"
)

// dictController trains only the dictionary candidate, so a trial round's
// outcome for the tests below does not hinge on timing other codecs.
func dictController(t *testing.T) *Controller {
	return testController(t, Config{
		SampleEvery:   1,
		ReservoirSize: 128,
		TrainDict:     true,
		Candidates:    []core.Config{},
	})
}

// trainDict serves items through h, which fills its reservoir, then runs a
// trial round to train the dictionary candidate and serves it (also when a
// retrained candidate did not clear the hysteresis bar on its own). It
// returns the frames written before the swap.
func trainDict(t *testing.T, c *Controller, h *Handle, items [][]byte) [][]byte {
	t.Helper()
	frames := make([][]byte, len(items))
	for i, p := range items {
		f, err := h.Compress(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	c.trial(h)
	if !h.haveDict {
		t.Fatalf("class %s: no dictionary trained from %d samples", h.Class(), len(h.snapshotSamples()))
	}
	if !bytes.Equal(h.Config().Dict, h.dictCand.Dict) {
		if err := h.adopt(core.Result{Config: h.dictCand, Feasible: true}); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

func TestUnknownDictionaryRejected(t *testing.T) {
	c := dictController(t)
	h, err := c.Handle("uc")
	if err != nil {
		t.Fatal(err)
	}
	// A well-formed frame written with a dictionary this class never
	// trained: the header's dictionary ID resolves to nothing.
	d := bytes.Repeat([]byte("external dictionary content "), 40)
	enc, err := zstd.NewEncoder(zstd.Options{Level: 3, Dict: d})
	if err != nil {
		t.Fatal(err)
	}
	frame := appendHeader(nil, 7, codecZstd, zstd.DictID(d))
	frame, err = enc.Compress(frame, []byte("some payload some payload some payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Decompress(nil, frame); err == nil || !strings.Contains(err.Error(), "unknown dictionary") {
		t.Fatalf("frame under an untrained dictionary: err = %v, want unknown dictionary", err)
	}
	// Still rejected once the class has trained a dictionary of its own.
	trainDict(t, c, h, corpus.CacheItems(1, corpus.DefaultItemTypes()[0], 200))
	if _, err := h.Decompress(nil, frame); err == nil {
		t.Fatal("frame under a foreign dictionary decoded after training")
	}
}

func TestClassesAreIsolated(t *testing.T) {
	c := dictController(t)
	a, err := c.Handle("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Handle("b")
	if err != nil {
		t.Fatal(err)
	}
	items := corpus.CacheItems(3, corpus.DefaultItemTypes()[0], 200)
	trainDict(t, c, a, items)
	if b.haveDict || b.Generation() != 1 || len(b.snapshotSamples()) != 0 {
		t.Fatalf("class b touched by a's traffic: dict=%v gen=%d samples=%d",
			b.haveDict, b.Generation(), len(b.snapshotSamples()))
	}
	frame, err := a.Compress(nil, items[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Decompress(nil, frame); err == nil {
		t.Fatal("class b decoded a frame under class a's dictionary")
	}
	if back, err := a.Decompress(nil, frame); err != nil || !bytes.Equal(back, items[0]) {
		t.Fatalf("class a roundtrip: %v", err)
	}
}

// TestTrainedDictBeatsDefaultOnCacheTraffic is the Managed Compression
// claim (§II-B, §IV-C) on the online controller: for two typed small-item
// cache streams, the dict-trained generation stores fewer bytes than the
// dictionary-less default on items it was not trained on, and frames from
// before and after the swap all decode.
func TestTrainedDictBeatsDefaultOnCacheTraffic(t *testing.T) {
	c := dictController(t)
	rng := rand.New(rand.NewSource(5))
	for _, typ := range corpus.DefaultItemTypes()[:2] {
		h, err := c.Handle(typ.Name)
		if err != nil {
			t.Fatal(err)
		}
		// A class that never trains serves the default throughout.
		base, err := c.Handle(typ.Name + "/default")
		if err != nil {
			t.Fatal(err)
		}
		warm := make([][]byte, 200)
		fresh := make([][]byte, 200)
		for i := range warm {
			warm[i] = typ.Item(rng)
			fresh[i] = typ.Item(rng)
		}
		warmFrames := trainDict(t, c, h, warm)
		var defaultBytes, dictBytes int
		var dictFrames [][]byte
		for _, p := range fresh {
			bf, err := base.Compress(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			df, err := h.Compress(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			defaultBytes += len(bf)
			dictBytes += len(df)
			dictFrames = append(dictFrames, df)
		}
		if dictBytes >= defaultBytes {
			t.Errorf("%s: dict-trained generation stored %d bytes, default %d", typ.Name, dictBytes, defaultBytes)
		}
		frames := append(warmFrames, dictFrames...)
		want := append(warm, fresh...)
		for i, f := range frames {
			if back, err := h.Decompress(nil, f); err != nil || !bytes.Equal(back, want[i]) {
				t.Fatalf("%s frame %d: %v", typ.Name, i, err)
			}
		}
		t.Logf("%s: %d fresh items stored in %d bytes by default, %d dict-trained", typ.Name, len(fresh), defaultBytes, dictBytes)
	}
}

// dictIDOf returns the dictionary ID a frame's header names.
func dictIDOf(t *testing.T, frame []byte) uint32 {
	t.Helper()
	_, _, id, _, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestRoundtripBeforeAndAfterTraining: every frame a class writes — the
// dictionary-less ones served before its first training and the ones under
// each retrained dictionary — decodes to its payload.
func TestRoundtripBeforeAndAfterTraining(t *testing.T) {
	c := testController(t, Config{
		SampleEvery:       1,
		ReservoirSize:     64,
		TrainDict:         true,
		Candidates:        []core.Config{},
		DictRetrainRounds: 1,
	})
	h, err := c.Handle("user_profile")
	if err != nil {
		t.Fatal(err)
	}
	payloads := corpus.CacheItems(1, corpus.DefaultItemTypes()[0], 600)
	var frames [][]byte
	for round := 0; round < 3; round++ {
		frames = append(frames, trainDict(t, c, h, payloads[round*200:(round+1)*200])...)
	}
	dicts := map[uint32]int{}
	var stored, raw int
	for i, f := range frames {
		dicts[dictIDOf(t, f)]++
		stored += len(f)
		raw += len(payloads[i])
		back, err := h.Decompress(nil, f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(back, payloads[i]) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
	if dicts[0] == 0 || len(dicts) < 3 {
		t.Fatalf("want dictionary-less frames and frames under two dictionaries, got frames per dict ID %v", dicts)
	}
	if stored >= raw {
		t.Fatalf("stored %d bytes for %d raw", stored, raw)
	}
}

// TestDictionaryImprovesOverTime: once the class has trained on its own
// traffic, the same fresh items cost fewer bytes than they did before.
func TestDictionaryImprovesOverTime(t *testing.T) {
	c := dictController(t)
	h, err := c.Handle("uc")
	if err != nil {
		t.Fatal(err)
	}
	typ := corpus.DefaultItemTypes()[0]
	fresh := corpus.CacheItems(99, typ, 100)
	storedBytes := func() int {
		n := 0
		for _, p := range fresh {
			f, err := h.Compress(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			n += len(f)
		}
		return n
	}
	before := storedBytes()
	trainDict(t, c, h, corpus.CacheItems(2, typ, 120))
	after := storedBytes()
	if after >= before {
		t.Fatalf("%d fresh items: %d bytes after training, %d before", len(fresh), after, before)
	}
	t.Logf("%d fresh items: %d bytes before training, %d after", len(fresh), before, after)
}

// TestOldGenerationsRemainDecodable: a frame written under the first
// trained dictionary still decodes after several retrains have retired
// its generation past RetainGenerations, so its encoder pool is gone and
// the decoder is rebuilt from the recorded dictionary.
func TestOldGenerationsRemainDecodable(t *testing.T) {
	c := testController(t, Config{
		SampleEvery:       1,
		TrainDict:         true,
		Candidates:        []core.Config{},
		DictRetrainRounds: 1,
		RetainGenerations: 1,
	})
	h, err := c.Handle("uc")
	if err != nil {
		t.Fatal(err)
	}
	var oldFrame, oldPayload []byte
	var oldGen uint64
	for round := 0; round < 5; round++ {
		items := corpus.CacheItems(int64(round), corpus.DefaultItemTypes()[0], 60)
		frames := trainDict(t, c, h, items)
		if round == 1 {
			oldFrame, oldPayload, oldGen = frames[0], items[0], h.Generation()-1
		}
	}
	if dictIDOf(t, oldFrame) == 0 {
		t.Fatal("frame from the second round was written without a dictionary")
	}
	if len(h.dicts) < 3 {
		t.Fatalf("%d dictionaries trained in 5 rounds", len(h.dicts))
	}
	if h.Generation()-oldGen <= uint64(c.cfg.RetainGenerations) {
		t.Fatalf("generation %d not retired past retention (now %d)", oldGen, h.Generation())
	}
	back, err := h.Decompress(nil, oldFrame)
	if err != nil {
		t.Fatalf("old generation frame: %v", err)
	}
	if !bytes.Equal(back, oldPayload) {
		t.Fatal("old frame corrupted")
	}
}

// TestConcurrentUse round-trips typed items from eight goroutines over three
// classes while one worker trains and swaps in dictionaries, as the
// controller's shadow worker would. Traffic keeps flowing until several
// dictionary swaps have happened under it. Run under -race in CI.
func TestConcurrentUse(t *testing.T) {
	const wantSwaps = 3
	c := testController(t, Config{
		SampleEvery:       2,
		TrainDict:         true,
		Candidates:        []core.Config{},
		DictRetrainRounds: 1,
	})
	var swaps atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, h := range c.handles() {
				c.trial(h)
				if h.haveDict && !bytes.Equal(h.Config().Dict, h.dictCand.Dict) {
					if err := h.adopt(core.Result{Config: h.dictCand, Feasible: true}); err != nil {
						t.Error(err)
						return
					}
					swaps.Add(1)
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := c.Handle(fmt.Sprintf("uc-%d", g%3))
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(g)))
			typ := corpus.DefaultItemTypes()[g%4]
			// At least 50 items each; then on until the swaps happened,
			// bounded so a worker that never trains fails instead of hangs.
			for i := 0; i < 50 || (swaps.Load() < wantSwaps && i < 5000); i++ {
				p := typ.Item(rng)
				f, err := h.Compress(nil, p)
				if err != nil {
					t.Error(err)
					return
				}
				back, err := h.Decompress(nil, f)
				if err != nil || !bytes.Equal(back, p) {
					t.Errorf("class %s item %d roundtrip: %v", h.Class(), i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-done
	if n := swaps.Load(); n < wantSwaps {
		t.Fatalf("%d dictionary swaps during traffic, want at least %d", n, wantSwaps)
	}
}
