// Command aida disambiguates named entities in text against a knowledge
// base, printing one annotation per recognized mention.
//
// Usage:
//
//	aida -kb kb.gob "They performed Kashmir, written by Page and Plant."
//	echo "text" | aida -gen 2000 -seed 7
//	aida -gen 2000 -batch -j 8 < corpus.txt
//
// With -kb a snapshot written by cmd/benchgen (or (*aida.KB).Save) is used;
// with -gen a synthetic world of the given size is generated on the fly;
// with -shard-map fleet.json the KB is dialed from remote shard hosts
// (aidaserver -shard-host processes) and nothing is loaded locally.
// Mentions are recognized automatically unless -mentions supplies a
// comma-separated list of surfaces, in text order, to link instead; each
// must occur in the text after the previous one. It composes with every
// other flag except -batch.
//
// With -batch the input (stdin or a file named by -in) is treated as
// multiple documents separated by blank lines; documents are annotated
// concurrently by -j workers over the system's shared scoring engine and
// printed in input order. Annotation runs under a signal-aware context:
// Ctrl-C cancels in-flight scoring instead of waiting for the corpus.
//
// With -context "phrase,phrase,..." the keyphrases are blended into
// mention–entity scoring as a request context prior (the short-text
// interest model; -context-weight sets the blend weight). With -domains
// domains.json and -domain <name> annotation routes through a per-domain
// dictionary layer composed over the KB. Without either flag the output
// is byte-identical to builds that predate them.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"aida"
	"aida/internal/kb"
	"aida/internal/wiki"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aida: ")
	var (
		kbPath   = flag.String("kb", "", "path to a KB snapshot (gob)")
		gen      = flag.Int("gen", 0, "generate a synthetic KB with this many entities")
		seed     = flag.Int64("seed", 42, "seed for -gen")
		mentions = flag.String("mentions", "", "comma-separated mention surfaces (skip NER)")
		method   = flag.String("method", "aida", "method: "+strings.Join(aida.MethodNames(), ", "))
		batch    = flag.Bool("batch", false, "treat input as blank-line-separated documents")
		inPath   = flag.String("in", "", "read input from this file instead of args/stdin")
		workers  = flag.Int("j", 0, "annotation parallelism for -batch (0 = GOMAXPROCS)")
		shardMap = flag.String("shard-map", "", "path to a shard-fleet topology file (JSON): annotate over remote shard hosts instead of a local KB; -kb/-gen are not required")
		hedge    = flag.Duration("hedge-after", 50*time.Millisecond, "with -shard-map, race a fetch against the next replica after this latency (negative disables hedging)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
		ctxKeys  = flag.String("context", "", "comma-separated interest keyphrases, blended into scoring as a request context prior")
		ctxWt    = flag.Float64("context-weight", 0, "context blend weight in [0, 1] (0 = the default; only with -context)")
		domains  = flag.String("domains", "", "path to a domain dictionaries file (JSON): named surface→entity dictionaries composed over the KB as selectable layers")
		domain   = flag.String("domain", "", "annotate through this domain layer from -domains")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	store, err := openStore(*kbPath, *gen, *seed, *shardMap, *hedge)
	if err != nil {
		log.Fatal(err)
	}
	text, err := inputText(flag.Args(), *inPath)
	if err != nil {
		log.Fatal(err)
	}

	m, err := aida.MethodByName(*method)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sys := aida.New(store, aida.WithMethod(m), aida.WithMaxCandidates(20))
	if *domains != "" {
		dicts, err := kb.LoadDomainDictionaries(*domains)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range dicts {
			if err := sys.RegisterDomain(d); err != nil {
				log.Fatal(err)
			}
		}
	}
	opts, err := requestOptions(*ctxKeys, *ctxWt, *domain)
	if err != nil {
		log.Fatal(err)
	}
	if *batch {
		if *mentions != "" {
			log.Fatal("-batch recognizes mentions automatically; drop -mentions")
		}
		docs := splitDocs(text)
		if len(docs) == 0 {
			log.Fatal("no documents in batch input")
		}
		for doc, err := range sys.AnnotateStream(ctx, slices.Values(docs), append(opts, aida.WithParallelism(*workers))...) {
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("# doc %d (%d mentions)\n", doc.Index+1, len(doc.Annotations))
			for _, a := range doc.Annotations {
				printResult(a.Mention.Text, a.Label, a.Entity, a.Score)
			}
		}
		return
	}
	if *mentions != "" {
		surfaces := strings.Split(*mentions, ",")
		for i := range surfaces {
			surfaces[i] = strings.TrimSpace(surfaces[i])
		}
		opts = append(opts, aida.WithMentions(surfaces...))
	}
	doc, err := sys.AnnotateDoc(ctx, text, opts...)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range doc.Annotations {
		printResult(a.Mention.Text, a.Label, a.Entity, a.Score)
	}
}

// requestOptions translates the -context/-context-weight/-domain flags
// into per-request annotate options. A weight without keyphrases is a flag
// mistake, not a request error, so it is caught here.
func requestOptions(ctxKeys string, ctxWeight float64, domain string) ([]aida.AnnotateOption, error) {
	var opts []aida.AnnotateOption
	if ctxKeys != "" {
		var phrases []string
		for _, p := range strings.Split(ctxKeys, ",") {
			if p = strings.TrimSpace(p); p != "" {
				phrases = append(phrases, p)
			}
		}
		opts = append(opts, aida.WithContext(phrases...))
		if ctxWeight != 0 {
			opts = append(opts, aida.WithContextWeight(ctxWeight))
		}
	} else if ctxWeight != 0 {
		return nil, fmt.Errorf("-context-weight needs -context")
	}
	if domain != "" {
		opts = append(opts, aida.WithDomain(domain))
	}
	return opts, nil
}

// startProfiles starts CPU profiling to cpuPath and arranges a heap
// profile write to memPath at stop, so annotation runs are attributable
// with standard pprof tooling (`go tool pprof aida cpu.out`). Either path
// may be empty. The returned stop function must run before exit for the
// profiles to be valid; error exits skip it, which only ever loses the
// profile of a failed run.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("create -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				log.Printf("close -cpuprofile: %v", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			log.Printf("create -memprofile: %v", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Printf("write -memprofile: %v", err)
		}
	}, nil
}

func loadKB(path string, gen int, seed int64) (*aida.KB, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return aida.LoadKB(f)
	case gen > 0:
		return wiki.Generate(wiki.Config{Seed: seed, Entities: gen}).KB, nil
	default:
		return nil, fmt.Errorf("provide -kb <file> or -gen <entities>")
	}
}

// openStore resolves the KB source: a remote shard fleet when -shard-map
// is given, otherwise a locally loaded KB. Output is byte-identical across
// both.
func openStore(kbPath string, gen int, seed int64, shardMap string, hedge time.Duration) (aida.Store, error) {
	if shardMap != "" {
		m, err := kb.LoadShardMap(shardMap)
		if err != nil {
			return nil, err
		}
		return kb.DialFleet(context.Background(), m, kb.RemoteOptions{HedgeAfter: hedge})
	}
	k, err := loadKB(kbPath, gen, seed)
	if err != nil {
		return nil, err
	}
	return k, nil
}

func inputText(args []string, inPath string) (string, error) {
	if inPath != "" {
		if len(args) > 0 {
			return "", fmt.Errorf("pass text either via -in or as arguments, not both")
		}
		data, err := os.ReadFile(inPath)
		if err != nil {
			return "", err
		}
		if len(data) == 0 {
			return "", fmt.Errorf("input file %s is empty", inPath)
		}
		return string(data), nil
	}
	if len(args) > 0 {
		return strings.Join(args, " "), nil
	}
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		return "", err
	}
	if len(data) == 0 {
		return "", fmt.Errorf("no input text (pass as argument, -in file, or stdin)")
	}
	return string(data), nil
}

// splitDocs splits batch input into documents on blank lines.
func splitDocs(text string) []string {
	var docs []string
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			docs = append(docs, strings.Join(cur, "\n"))
			cur = cur[:0]
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		cur = append(cur, line)
	}
	flush()
	return docs
}

func printResult(surface, label string, e aida.EntityID, score float64) {
	if e == aida.NoEntity {
		label = "<out-of-KB>"
	}
	fmt.Printf("%-25s → %-35s (score %.4f)\n", surface, label, score)
}
