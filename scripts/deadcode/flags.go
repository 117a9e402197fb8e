package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

const (
	readme    = "README.md"
	usageFile = "cmd/aimai/main.go"
)

// cmdFlag is one flag registered under cmd/ and the subcommand whose
// FlagSet registers it.
type cmdFlag struct{ set, name string }

// checkFlags prints every flag registered under cmd/ that README.md or its
// subcommand's Usage: line does not mention, and returns how many flags
// there are and how many mentions are missing.
func checkFlags() (n, missing int, err error) {
	flags, err := scanFlags("cmd")
	if err != nil {
		return 0, 0, err
	}
	doc, err := os.ReadFile(readme)
	if err != nil {
		return 0, 0, err
	}
	usage, err := readUsage(usageFile)
	if err != nil {
		return 0, 0, err
	}
	for _, f := range flags {
		word := regexp.MustCompile(`(^|[^\w-])` + regexp.QuoteMeta("-"+f.name) + `($|[^\w-])`)
		if !word.Match(doc) {
			fmt.Printf("flag not in %s: %s -%s\n", readme, f.set, f.name)
			missing++
		}
		if !word.MatchString(usage[f.set]) {
			fmt.Printf("flag not in the Usage: comment of %s: %s -%s\n", usageFile, f.set, f.name)
			missing++
		}
	}
	return len(flags), missing, nil
}

// scanFlags lists the flags registered in the non-test files under dir:
// calls like fs.Int("name", ...) or fs.IntVar(&v, "name", ...), each
// credited to the flag.NewFlagSet("set", ...) call before it in its file.
func scanFlags(dir string) ([]cmdFlag, error) {
	var out []cmdFlag
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		set := ""
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			method, arg := sel.Sel.Name, 0
			if strings.HasSuffix(method, "Var") {
				method, arg = strings.TrimSuffix(method, "Var"), 1
			}
			if arg >= len(call.Args) {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			switch method {
			case "NewFlagSet":
				set = name
			case "", "Bool", "BoolFunc", "Duration", "Float64", "Func", "Int", "Int64", "String", "Text", "Uint", "Uint64":
				out = append(out, cmdFlag{set, name})
			}
			return true
		})
		return nil
	})
	return out, err
}

// readUsage splits the Usage: code block of a file's package comment by
// subcommand: a line "aimai <cmd> ..." opens a subcommand's text, and the
// lines under it belong to it until the next one.
func readUsage(path string) (map[string]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		return nil, err
	}
	_, block, ok := strings.Cut(f.Doc.Text(), "Usage:")
	if !ok {
		return nil, fmt.Errorf("%s: the package comment has no Usage: block", path)
	}
	out := map[string]string{}
	cur := ""
	for _, line := range strings.Split(block, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if line[0] != '\t' && line[0] != ' ' {
			break // the text after the code block
		}
		if len(fields) >= 2 && fields[0] == "aimai" {
			cur = fields[1]
		}
		out[cur] += line + "\n"
	}
	return out, nil
}
