package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"windserve/internal/sim"
)

// A Scenario is a named workload preset over the package's Table-2-style
// samplers and pull-based Sources, shaped after a production traffic
// class. Scenarios that model conversations or tool loops emit correlated
// *sessions* — multiple requests sharing a SessionID whose prompts grow
// by accumulated context, with PrefixGroup/PrefixTokens describing the
// span a prefix cache could reuse. Single-shot scenarios set prefix
// identity where real sharing exists (RAG corpus documents, a shared
// system template) and leave it zero elsewhere.
//
// Sources are deterministic per (n, rate, seed) and yield requests in
// non-decreasing arrival order, so scenario runs are byte-identical and
// replayable like every other trace in the repo.
type Scenario struct {
	// Name is the ScenarioByName key, e.g. "chat".
	Name string
	// Desc is a one-line description for usage text and docs.
	Desc string

	build func(n int, rate float64, seed int64) Source
}

// Source returns a pull-based source of n requests with mean arrival
// rate req/s, deterministic in seed.
func (sc Scenario) Source(n int, rate float64, seed int64) Source {
	return sc.build(n, rate, seed)
}

// scenarios is the library, in display order.
var scenarios = []Scenario{
	{
		Name: "chat",
		Desc: "multi-turn conversations sharing a per-session context chain (system prompt + history)",
		build: func(n int, rate float64, seed int64) Source {
			return newSessionSource(n, seed, sessionCfg{
				// Sessions arrive so that turns average out to rate.
				process:   PoissonArrivals{Rate: rate / 5.0},
				turnsMin:  2,
				turnsMax:  8,
				gapMean:   12, // think time between turns, seconds
				sysMin:    160,
				sysMax:    480,
				userDist:  chatTurnDist(),
				outDist:   chatReplyDist(),
				maxCtx:    2048,
				groupBase: 1 << 32,
			})
		},
	},
	{
		Name: "rag",
		Desc: "retrieval-augmented: long prompts over a small shared document corpus, short answers",
		build: func(n int, rate float64, seed int64) Source {
			return newRAGSource(n, rate, seed)
		},
	},
	{
		Name: "agentic",
		Desc: "tool loops: bursty correlated sessions of short steps over fast-growing context",
		build: func(n int, rate float64, seed int64) Source {
			return newSessionSource(n, seed, sessionCfg{
				process:   BurstyArrivals{Rate: rate / 6.0, BurstProb: 0.3, BurstFactor: 8},
				turnsMin:  3,
				turnsMax:  10,
				gapMean:   1.5, // tool round-trips, not human think time
				sysMin:    256,
				sysMax:    768,
				userDist:  toolResultDist(),
				outDist:   toolCallDist(),
				maxCtx:    4096,
				groupBase: 2 << 32,
			})
		},
	},
	{
		Name: "reasoning",
		Desc: "short prompts, very long chains of thought: decode-side pressure, no shared prefixes",
		build: func(n int, rate float64, seed int64) Source {
			g := NewGenerator(Dataset{
				Name: "reasoning",
				Prompt: LengthDist{Name: "reasoning-prompt", Knots: []QuantileKnot{
					{0, 16}, {0.5, 96}, {0.9, 256}, {1, 512},
				}},
				Output: LengthDist{Name: "reasoning-output", Knots: []QuantileKnot{
					{0, 256}, {0.5, 1024}, {0.9, 2400}, {1, 3500},
				}},
				MaxContext: 4096,
			}, PoissonArrivals{Rate: rate}, seed)
			return g.Source(n)
		},
	},
	{
		Name: "diurnal",
		Desc: "ShareGPT traffic on a compressed day cycle with a flash crowd at the afternoon peak",
		build: func(n int, rate float64, seed int64) Source {
			g := NewGenerator(ShareGPT(), newDiurnalArrivals(rate), seed)
			return g.Source(n)
		},
	},
	{
		Name: "mixshift",
		Desc: "square-wave swings between prompt-heavy and decode-heavy traffic with a flash crowd — the shifting phase mix role flipping exploits",
		build: func(n int, rate float64, seed int64) Source {
			return newMixShiftSource(n, rate, seed)
		},
	},
}

// Scenarios returns the scenario library in display order.
func Scenarios() []Scenario {
	out := make([]Scenario, len(scenarios))
	copy(out, scenarios)
	return out
}

// ScenarioNames returns the valid ScenarioByName keys, sorted.
func ScenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.Name
	}
	sort.Strings(names)
	return names
}

// ScenarioByName looks up a scenario by its name.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q (want one of %v)", name, ScenarioNames())
}

// Per-turn length distributions. Chat turns are much shorter than
// ShareGPT's whole-conversation prompts: the bulk of each prompt is
// history, which the session source accumulates explicitly.

func chatTurnDist() LengthDist {
	return LengthDist{Name: "chat-turn", Knots: []QuantileKnot{
		{0, 8}, {0.5, 80}, {0.9, 300}, {1, 700},
	}}
}

func chatReplyDist() LengthDist {
	return LengthDist{Name: "chat-reply", Knots: []QuantileKnot{
		{0, 16}, {0.5, 140}, {0.9, 420}, {1, 900},
	}}
}

func toolResultDist() LengthDist {
	return LengthDist{Name: "tool-result", Knots: []QuantileKnot{
		{0, 32}, {0.5, 200}, {0.9, 600}, {1, 1200},
	}}
}

func toolCallDist() LengthDist {
	return LengthDist{Name: "tool-call", Knots: []QuantileKnot{
		{0, 16}, {0.5, 60}, {0.9, 200}, {1, 400},
	}}
}

// sessionCfg parameterizes a correlated-session source.
type sessionCfg struct {
	process            ArrivalProcess // session (not request) arrivals
	turnsMin, turnsMax int            // uniform turns per session
	gapMean            float64        // mean seconds between a reply and the next turn
	sysMin, sysMax     int            // shared system-prompt span, uniform
	userDist           LengthDist     // new tokens added by each turn
	outDist            LengthDist     // reply tokens per turn
	maxCtx             int
	groupBase          uint64 // namespace for PrefixGroup/SessionID values
}

// session is one in-flight conversation.
type session struct {
	sid       uint64
	ctx       int // accumulated context = next turn's cached prefix
	turnsLeft int
}

// turnEvent is a pending next-turn in the source's event heap.
type turnEvent struct {
	at  sim.Time
	seq uint64 // tie-break: FIFO among equal times
	s   *session
}

// sessionSource merges session starts (from the arrival process) with
// pending next-turns (a min-heap on arrival time) into one non-decreasing
// request stream. Turn t of a session carries PrefixTokens equal to the
// session's accumulated context, so with prefix caching on, each turn
// re-pays only its new tokens.
type sessionSource struct {
	cfg       sessionCfg
	rng       *rand.Rand
	remaining int
	nextID    uint64
	nextSID   uint64
	clock     sim.Time // next session start
	seq       uint64
	heap      []turnEvent
}

func newSessionSource(n int, seed int64, cfg sessionCfg) *sessionSource {
	src := &sessionSource{
		cfg: cfg, rng: rand.New(rand.NewSource(seed)),
		remaining: n, nextID: 1, nextSID: 1,
	}
	src.clock = sim.Time(0).Add(cfg.process.NextGap(src.rng))
	return src
}

// Next implements Source.
func (s *sessionSource) Next() (Request, bool) {
	if s.remaining <= 0 {
		return Request{}, false
	}
	// Start sessions until the earliest pending turn precedes the next
	// session start; then emit that turn. A clock that runs backwards (a
	// negative rate) starts one session per call instead of starting
	// sessions forever; the front door rejects the decreasing arrivals.
	for len(s.heap) == 0 || s.heap[0].at > s.clock {
		sess := &session{
			sid:       s.cfg.groupBase + s.nextSID,
			ctx:       s.cfg.sysMin + s.rng.Intn(s.cfg.sysMax-s.cfg.sysMin+1),
			turnsLeft: s.cfg.turnsMin + s.rng.Intn(s.cfg.turnsMax-s.cfg.turnsMin+1),
		}
		s.nextSID++
		s.push(turnEvent{at: s.clock, s: sess})
		prev := s.clock
		s.clock = s.clock.Add(s.cfg.process.NextGap(s.rng))
		if s.clock < prev {
			break
		}
	}
	ev := s.pop()
	sess := ev.s

	user := s.cfg.userDist.Sample(s.rng)
	out := s.cfg.outDist.Sample(s.rng)
	prefix := sess.ctx
	prompt := sess.ctx + user
	if prompt > s.cfg.maxCtx-1 {
		prompt = s.cfg.maxCtx - 1
	}
	if prefix > prompt-1 {
		prefix = prompt - 1
	}
	if prompt+out > s.cfg.maxCtx {
		out = s.cfg.maxCtx - prompt
	}
	if out < 1 {
		out = 1
	}
	r := Request{
		ID: s.nextID, Arrival: ev.at,
		PromptTokens: prompt, OutputTokens: out,
		SessionID:    sess.sid,
		PrefixGroup:  sess.sid, // one content chain per conversation
		PrefixTokens: prefix,
	}
	s.nextID++
	s.remaining--

	sess.ctx = prompt + out
	sess.turnsLeft--
	// The next turn arrives a think-time after this reply would land;
	// sessions whose context approaches the window simply end.
	if sess.turnsLeft > 0 && sess.ctx < s.cfg.maxCtx-s.cfg.maxCtx/8 {
		gap := sim.Seconds(s.cfg.gapMean * s.rng.ExpFloat64())
		s.push(turnEvent{at: ev.at.Add(gap), s: sess})
	}
	return r, true
}

func (s *sessionSource) push(ev turnEvent) {
	s.seq++
	ev.seq = s.seq
	s.heap = append(s.heap, ev)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !turnLess(s.heap[i], s.heap[p]) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *sessionSource) pop() turnEvent {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && turnLess(s.heap[l], s.heap[m]) {
			m = l
		}
		if r < last && turnLess(s.heap[r], s.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
	return top
}

func turnLess(a, b turnEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ragSource issues single-shot retrieval-augmented requests: each prompt
// is a shared corpus document (the cacheable span) plus a fresh query,
// with popularity skewed toward the head of the corpus so hot documents
// stay cached and cold ones exercise eviction/demotion.
type ragSource struct {
	rng       *rand.Rand
	process   ArrivalProcess
	remaining int
	nextID    uint64
	clock     sim.Time
	docTokens [ragCorpusDocs]int
}

const (
	ragCorpusDocs = 24
	ragGroupBase  = 3 << 32
)

func newRAGSource(n int, rate float64, seed int64) *ragSource {
	src := &ragSource{
		rng: rand.New(rand.NewSource(seed)), process: PoissonArrivals{Rate: rate},
		remaining: n, nextID: 1,
	}
	for i := range src.docTokens {
		// Document lengths 600–2200 tokens, fixed per document.
		src.docTokens[i] = 600 + src.rng.Intn(1601)
	}
	return src
}

// Next implements Source.
func (s *ragSource) Next() (Request, bool) {
	if s.remaining <= 0 {
		return Request{}, false
	}
	s.clock = s.clock.Add(s.process.NextGap(s.rng))
	// Popularity ~ u²: the head of the corpus takes most of the traffic.
	doc := int(float64(ragCorpusDocs) * math.Pow(s.rng.Float64(), 2))
	if doc >= ragCorpusDocs {
		doc = ragCorpusDocs - 1
	}
	query := 60 + s.rng.Intn(341)
	out := 20 + s.rng.Intn(141)
	const maxCtx = 4096
	prompt := s.docTokens[doc] + query
	if prompt > maxCtx-1 {
		prompt = maxCtx - 1
	}
	if prompt+out > maxCtx {
		out = maxCtx - prompt
	}
	r := Request{
		ID: s.nextID, Arrival: s.clock,
		PromptTokens: prompt, OutputTokens: out,
		PrefixGroup:  ragGroupBase + uint64(doc),
		PrefixTokens: s.docTokens[doc],
	}
	s.nextID++
	s.remaining--
	return r, true
}

// diurnalArrivals modulates a Poisson process with a compressed day
// cycle (sinusoidal, one hour per "day") plus a flash crowd — a window
// at the afternoon peak where the instantaneous rate multiplies. The
// process integrates its own virtual clock from the gaps it hands out,
// so it stays a drop-in ArrivalProcess.
type diurnalArrivals struct {
	base float64
	t    float64 // seconds of virtual time already emitted
}

const (
	diurnalPeriod    = 3600.0 // one compressed day
	diurnalSwing     = 0.45   // rate swings base*(1±swing)
	flashCrowdStart  = 0.55   // fraction of the period
	flashCrowdLen    = 0.06
	flashCrowdFactor = 5.0
	diurnalRateFloor = 0.05
)

func newDiurnalArrivals(rate float64) *diurnalArrivals {
	return &diurnalArrivals{base: rate}
}

// rateAt is the instantaneous rate at phase t.
func (d *diurnalArrivals) rateAt(t float64) float64 {
	phase := math.Mod(t, diurnalPeriod) / diurnalPeriod
	r := d.base * (1 + diurnalSwing*math.Sin(2*math.Pi*(phase-0.25)))
	if phase >= flashCrowdStart && phase < flashCrowdStart+flashCrowdLen {
		r *= flashCrowdFactor
	}
	if r < d.base*diurnalRateFloor {
		r = d.base * diurnalRateFloor
	}
	return r
}

// NextGap draws an exponential gap at the current instantaneous rate.
func (d *diurnalArrivals) NextGap(rng *rand.Rand) sim.Duration {
	gap := rng.ExpFloat64() / d.rateAt(d.t)
	d.t += gap
	return sim.Seconds(gap)
}

// Name implements ArrivalProcess.
func (d *diurnalArrivals) Name() string {
	return fmt.Sprintf("diurnal(%.2f,flash x%.0f)", d.base, flashCrowdFactor)
}

// mixShiftSource alternates the request *shape* on a square wave: phases
// of long prompts with near-trivial outputs (all the work is prefill)
// swap with phases of short prompts and long generations (all the work
// is decode), plus one flash crowd inside a decode-heavy phase. The
// aggregate rate barely moves — what shifts is which phase the tokens
// land on, so a static prefill:decode split is wrong half the time. This
// is the workload elastic role flipping is built for, and the ext-elastic
// exhibit runs it.
type mixShiftSource struct {
	rng       *rand.Rand
	rate      float64
	remaining int
	nextID    uint64
	t         float64 // seconds of virtual time already emitted
}

const (
	// mixShiftPhaseSec is the half-cycle: prompt-heavy for one phase,
	// decode-heavy for the next.
	mixShiftPhaseSec = 120.0
	// The flash crowd hits inside the first decode-heavy phase
	// (t in [mixShiftFlashAt, mixShiftFlashAt+mixShiftFlashLen)).
	mixShiftFlashAt     = 180.0
	mixShiftFlashLen    = 20.0
	mixShiftFlashFactor = 4.0
	mixShiftMaxCtx      = 4096
)

func newMixShiftSource(n int, rate float64, seed int64) *mixShiftSource {
	return &mixShiftSource{
		rng: rand.New(rand.NewSource(seed)), rate: rate,
		remaining: n, nextID: 1,
	}
}

func mixShiftPromptHeavy() (prompt, output LengthDist) {
	return LengthDist{Name: "mixshift-doc", Knots: []QuantileKnot{
			{0, 512}, {0.5, 1400}, {0.9, 2600}, {1, 3600},
		}}, LengthDist{Name: "mixshift-summary", Knots: []QuantileKnot{
			{0, 8}, {0.5, 24}, {0.9, 64}, {1, 128},
		}}
}

func mixShiftDecodeHeavy() (prompt, output LengthDist) {
	return LengthDist{Name: "mixshift-question", Knots: []QuantileKnot{
			{0, 24}, {0.5, 96}, {0.9, 256}, {1, 512},
		}}, LengthDist{Name: "mixshift-generation", Knots: []QuantileKnot{
			{0, 128}, {0.5, 420}, {0.9, 900}, {1, 1400},
		}}
}

// Next implements Source.
func (s *mixShiftSource) Next() (Request, bool) {
	if s.remaining <= 0 {
		return Request{}, false
	}
	r := s.rate
	if s.t >= mixShiftFlashAt && s.t < mixShiftFlashAt+mixShiftFlashLen {
		r *= mixShiftFlashFactor
	}
	s.t += s.rng.ExpFloat64() / r
	pd, od := mixShiftPromptHeavy()
	if int(s.t/mixShiftPhaseSec)%2 == 1 {
		pd, od = mixShiftDecodeHeavy()
	}
	prompt := pd.Sample(s.rng)
	out := od.Sample(s.rng)
	if prompt > mixShiftMaxCtx-1 {
		prompt = mixShiftMaxCtx - 1
	}
	if prompt+out > mixShiftMaxCtx {
		out = mixShiftMaxCtx - prompt
	}
	req := Request{
		ID: s.nextID, Arrival: sim.Time(s.t),
		PromptTokens: prompt, OutputTokens: out,
	}
	s.nextID++
	s.remaining--
	return req, true
}
