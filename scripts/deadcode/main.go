// Command deadcode gates exported code that nothing calls. It lists every
// exported function and method declared in a non-test file under internal/
// whose name appears as no identifier in any non-test .go file of the
// repository, outside its own declaration. bench/, cmd/, examples/ and
// scripts/ count as callers; aimai/ is the public API, so its names are
// never listed. The scan is by name, so a method that only satisfies an
// interface (heap.Interface's Less, say) is listed too. The same blind spot
// cuts the other way: an uncalled name that any other identifier shares
// counts as called (an uncalled Server.Addr passes while net.Listener's Addr
// is used, and so did Classifier.Uncertainty beside ml.Uncertainty), so a
// pass does not prove every exported name has a caller.
//
// A listed name passes only when the allowlist names it with a reason, one
// per line ("btree.Tree.Seek  reason"); a name reads pkg.Func or
// pkg.Type.Method. An allowlist entry the scan no longer lists fails too,
// so the list can only shrink.
//
// It also fails on any command-line flag registered under cmd/ that the
// docs do not mention: README.md must name it (as -flag), and so must the
// line of its subcommand in the Usage: block of cmd/aimai/main.go's package
// comment. There is no allowlist for flags: document one or delete it.
//
//	go run ./scripts/deadcode    # from the repository root
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const allowlist = "scripts/deadcode/allowlist.txt"

func main() {
	listed, err := scan()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	allowed, err := readAllowlist(allowlist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	bad := 0
	seen := map[string]bool{}
	for _, name := range listed {
		seen[name] = true
		if !allowed[name] {
			fmt.Printf("no caller outside tests: %s\n", name)
			bad++
		}
	}
	var stale []string
	for name := range allowed {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Printf("allowlist entry has a caller or is gone, remove it: %s\n", name)
		bad++
	}
	nflags, undocumented, err := checkFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	if bad+undocumented > 0 {
		fmt.Printf("deadcode: %d problem(s); give each name a caller, delete it, or allowlist it with a reason in %s; document each flag in %s and the Usage: comment of %s, or delete it\n",
			bad+undocumented, allowlist, readme, usageFile)
		os.Exit(1)
	}
	fmt.Printf("deadcode: %d uncalled exported names, all allowlisted; %d flags, all documented\n", len(listed), nflags)
}

// decl is one exported function or method declared under internal/.
type decl struct {
	name  string // the identifier
	label string // pkg.Func or pkg.Type.Method
}

// scan parses every non-test .go file under the working directory and
// returns the labels of the exported internal/ declarations whose name no
// other identifier uses.
func scan() ([]string, error) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		own := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if internal && fd.Name.IsExported() {
				decls = append(decls, decl{fd.Name.Name, label(f.Name.Name, fd)})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range decls {
		if !used[d.name] {
			out = append(out, d.label)
		}
	}
	sort.Strings(out)
	return out, nil
}

// label names a declaration as pkg.Func or pkg.Type.Method.
func label(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr: // generic receiver T[P]
		t = x.X
	case *ast.IndexListExpr: // generic receiver T[P, Q]
		t = x.X
	}
	recv := "?"
	if id, ok := t.(*ast.Ident); ok {
		recv = id.Name
	}
	return pkg + "." + recv + "." + fd.Name.Name
}

// readAllowlist parses "name reason" lines; blank lines and lines starting
// with # are skipped, and every name needs a reason.
func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		name := fields[0]
		if len(fields) == 1 {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, ln, name)
		}
		if out[name] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, ln, name)
		}
		out[name] = true
	}
	return out, sc.Err()
}
