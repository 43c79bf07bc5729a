package lint

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

const serverSourcePath = "../../internal/server/server.go"

// readPristineServer loads the real internal/server/server.go and requires
// ackorder to pass it as it stands.
func readPristineServer(t *testing.T) []byte {
	t.Helper()
	src, err := os.ReadFile(serverSourcePath)
	if err != nil {
		t.Fatalf("reading server source: %v", err)
	}
	pristine, err := NewRepoFromSource("internal/server/server.go", string(src))
	if err != nil {
		t.Fatalf("server.go does not parse: %v", err)
	}
	if findings := pristine.Run([]*Analyzer{ByName("ackorder")}); len(findings) != 0 {
		t.Fatalf("pristine server.go already flagged: %v", findings)
	}
	return src
}

func stmtContains(st ast.Stmt, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if !found && pred(n) {
			found = true
		}
		return !found
	})
	return found
}

func callsNamed(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && calleeName(call) == name
	}
}

func isSend(n ast.Node) bool {
	_, ok := n.(*ast.SendStmt)
	return ok
}

// reorderServer rewrites server.go: in the first statement list where some
// statement's subtree matches earlier and a LATER statement's subtree
// matches later, it either moves the later statement in front of the earlier
// one (laterFirst) or the earlier statement behind the later one, and
// returns the re-rendered source.
func reorderServer(t *testing.T, src []byte, earlier, later func(ast.Node) bool, laterFirst bool) string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "server.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	ast.Inspect(file, func(n ast.Node) bool {
		if moved {
			return false
		}
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		ei, li := -1, -1
		for i, st := range block.List {
			if ei < 0 && stmtContains(st, earlier) {
				ei = i
				continue
			}
			if ei >= 0 && li < 0 && stmtContains(st, later) {
				li = i
			}
		}
		if ei < 0 || li < 0 {
			return true
		}
		reordered := make([]ast.Stmt, 0, len(block.List))
		reordered = append(reordered, block.List[:ei]...)
		if laterFirst {
			reordered = append(reordered, block.List[li])
			reordered = append(reordered, block.List[ei:li]...)
		} else {
			reordered = append(reordered, block.List[ei+1:li+1]...)
			reordered = append(reordered, block.List[ei])
		}
		block.List = append(reordered, block.List[li+1:]...)
		moved = true
		return false
	})
	if !moved {
		t.Fatal("server.go has no statement list with the two steps in order; the acceptance reorder needs updating")
	}
	var buf bytes.Buffer
	if err := format.Node(&buf, fset, file); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// requireUnackedSendFlagged runs ackorder over a rewritten server.go and
// requires a finding that names the result send.
func requireUnackedSendFlagged(t *testing.T, src, what string) {
	t.Helper()
	scratch, err := NewRepoFromSource("internal/server/server.go", src)
	if err != nil {
		t.Fatalf("reordered server.go does not parse: %v", err)
	}
	findings := scratch.Run([]*Analyzer{ByName("ackorder")})
	if len(findings) == 0 {
		t.Fatalf("%s, but ackorder stayed silent", what)
	}
	for _, f := range findings {
		if f.Analyzer == "ackorder" && strings.Contains(f.Message, "result send is not preceded") {
			return
		}
	}
	t.Fatalf("no ackorder finding names the reordered result send; got: %v", findings)
}

// TestAckOrderCatchesReorderedAck is the acceptance check for the
// exactly-once static rule: take the real internal/server/server.go, move
// the ack send ahead of the engine Offer call inside processEpoch (the
// two-phase processEpoch keeps them in sibling loops of one function body) —
// the client is told "admitted" before the decision is even written — and
// require ackorder to flag the scratch copy while passing the pristine one.
func TestAckOrderCatchesReorderedAck(t *testing.T) {
	src := readPristineServer(t)
	reordered := reorderServer(t, src, callsNamed("Offer"), isSend, true)
	requireUnackedSendFlagged(t, reordered, "ack send reordered before the journal-bearing Offer")
}

// TestAckOrderCatchesCommitBelowSend is the group-commit half of the same
// check: the epoch's records are written by Offer but durable only once the
// Commit barrier returns, so moving the commit below the first ack send — the
// decisions journaled, the fsync still pending — must be flagged too. Offer
// alone no longer dominates an ack.
func TestAckOrderCatchesCommitBelowSend(t *testing.T) {
	src := readPristineServer(t)
	reordered := reorderServer(t, src, callsNamed("Commit"), isSend, false)
	requireUnackedSendFlagged(t, reordered, "commit barrier moved below the first ack send")
}
