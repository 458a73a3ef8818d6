package service

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"locshort/internal/dist"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/shortcut"
	"locshort/internal/tree"
)

// TestSharedTreeConcurrentFirstTouch starts every reader of a graph's
// memoized BFS tree at once on a graph nobody has rooted yet: eight
// Builder builds, a Borůvka MST, a trivial shortcut's Measure, and an
// engine build's part-wise routing. CI runs it under -race -count=10.
func TestSharedTreeConcurrentFirstTouch(t *testing.T) {
	g := graph.Grid(24, 24)
	p, err := partition.BFSBlobs(g, 16, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{Workers: 2})
	fp, err := e.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		errs  = make(chan error, 16)
		trees = make([]*tree.Rooted, 8)
	)
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := f(); err != nil {
				errs <- err
			}
		}()
	}
	for i := range trees {
		run(func() error {
			res, err := shortcut.NewBuilder().Build(g, p, shortcut.Options{})
			if err == nil {
				trees[i] = res.Shortcut.Tree
			}
			return err
		})
	}
	run(func() error {
		_, err := dist.MST(g, dist.MSTOptions{Seed: 1})
		return err
	})
	run(func() error {
		s, err := shortcut.Trivial(g, p, nil)
		if err != nil {
			return err
		}
		if q := shortcut.Measure(s); q.CoveredParts != p.NumParts() {
			return fmt.Errorf("trivial shortcut covers %d of %d parts", q.CoveredParts, p.NumParts())
		}
		return nil
	})
	run(func() error {
		c, _, err := e.Build(context.Background(), BuildRequest{Graph: fp, Parts: p})
		if err == nil {
			_, err = c.Routing()
		}
		return err
	})
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	want, err := tree.FromBFS(g, graph.ChooseRoot(g))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trees {
		if &tr.Parent[0] != &trees[0].Parent[0] || &tr.Order[0] != &trees[0].Order[0] {
			t.Errorf("build %d carries its own tree arrays", i)
		}
	}
	for v := range want.Parent {
		if trees[0].Parent[v] != want.Parent[v] || trees[0].Depth[v] != want.Depth[v] {
			t.Fatalf("node %d: shared tree differs from a BFS from the chosen root", v)
		}
	}
}
