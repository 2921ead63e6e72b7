// Package nvvp parses and synthesizes NVIDIA-Visual-Profiler-style analysis
// reports. The paper's advisor accepts NVVP reports (PDF exports) as queries
// and extracts the subsections carrying the "Optimization:" identifier as
// performance-issue content (§4.1); PDFs are not reproducible offline, so
// this package defines an equivalent plain-text report format that exercises
// the same extraction-and-query path, and synthesizes the reports of the
// paper's four benchmark programs (knnjoin, knnjoin_opt, trans, trans_opt)
// plus the user-study program (norm).
package nvvp

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
)

// Issue is one performance issue extracted from a report.
type Issue struct {
	Section     string // report section the issue was found in
	Title       string // issue title (after "Optimization:")
	Description string
}

// Query renders the issue as the advisor query string: title plus
// description, as the paper combines them.
func (i Issue) Query() string {
	return strings.TrimSpace(i.Title + ". " + i.Description)
}

// Section is one of the report's four analysis sections.
type Section struct {
	Title  string
	Body   string
	Issues []Issue
}

// Report is a parsed profiler report.
type Report struct {
	Program  string
	Sections []Section
}

// Issues returns every issue of the report in order.
func (r *Report) Issues() []Issue {
	var out []Issue
	for _, s := range r.Sections {
		out = append(out, s.Issues...)
	}
	return out
}

// ParseReport reads either profiler format: a text whose first non-space
// byte is '{' is a JSON metrics snapshot (ParseMetricsJSON, then
// Metrics.Report), anything else the text report format (Parse).
func ParseReport(text string) (*Report, error) {
	trimmed := strings.TrimSpace(text)
	if !strings.HasPrefix(trimmed, "{") {
		return Parse(text)
	}
	m, err := ParseMetricsJSON([]byte(trimmed))
	if err != nil {
		return nil, err
	}
	return m.Report(), nil
}

// Parse reads the text report format:
//
//	=== NVVP Analysis Report ===
//	Program: knnjoin.cu
//
//	-- 1. Overview --
//	free text
//
//	-- 2. Compute Resources --
//	Optimization: Divergent Branches
//	description continuing
//	over multiple lines
//
// Sections open with "-- n. Title --"; each "Optimization:" line opens an
// issue whose description runs until the next issue, section, or blank line
// followed by a non-indented marker.
//
// Description and body lines are appended to builders, whose text is taken
// without a copy, so parsing is linear in the report's size.
func Parse(text string) (*Report, error) {
	r := &Report{}
	lines := strings.Split(text, "\n")
	var cur *Section
	var curIssue *Issue
	var body, desc strings.Builder // the open section's body and issue's description
	sawHeader := false
	for _, raw := range lines {
		line := strings.TrimRight(raw, " \t\r")
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "=== ") && strings.HasSuffix(trimmed, " ==="):
			sawHeader = true
		case strings.HasPrefix(trimmed, "Program:"):
			r.Program = strings.TrimSpace(strings.TrimPrefix(trimmed, "Program:"))
		case strings.HasPrefix(trimmed, "-- ") && strings.HasSuffix(trimmed, " --"):
			title := strings.TrimSuffix(strings.TrimPrefix(trimmed, "-- "), " --")
			// strip a leading "n." ordinal
			if dot := strings.Index(title, ". "); dot > 0 && dot <= 3 {
				title = title[dot+2:]
			}
			r.Sections = append(r.Sections, Section{Title: title})
			cur = &r.Sections[len(r.Sections)-1]
			curIssue = nil
			body.Reset()
		case strings.HasPrefix(trimmed, "Optimization:"):
			if cur == nil {
				return nil, fmt.Errorf("nvvp: Optimization marker before any section")
			}
			cur.Issues = append(cur.Issues, Issue{
				Section: cur.Title,
				Title:   strings.TrimSpace(strings.TrimPrefix(trimmed, "Optimization:")),
			})
			curIssue = &cur.Issues[len(cur.Issues)-1]
			desc.Reset()
		case trimmed == "":
			curIssue = nil
		default:
			switch {
			case curIssue != nil:
				curIssue.Description = addLine(&desc, trimmed)
			case cur != nil:
				cur.Body = addLine(&body, trimmed)
			}
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("nvvp: missing report header")
	}
	if len(r.Sections) == 0 {
		return nil, fmt.Errorf("nvvp: report has no sections")
	}
	return r, nil
}

// addLine appends one line to a description or body, space-separated, and
// returns the text so far.
func addLine(b *strings.Builder, line string) string {
	if b.Len() > 0 {
		b.WriteByte(' ')
	}
	b.WriteString(line)
	return b.String()
}

// issuePlacement maps a query's report section by its subtopic, mirroring
// NVVP's three analysis aspects.
func sectionFor(subtopic string) string {
	switch subtopic {
	case "instr-latency":
		return "Instruction and Memory Latency"
	case "warp-efficiency", "divergence", "mem-instruction":
		return "Compute Resources"
	default:
		return "Memory Bandwidth"
	}
}

// Programs lists the report programs the synthesizer knows.
func Programs() []string {
	return []string{"knnjoin", "knnjoin_opt", "trans", "trans_opt", "norm"}
}

// Synthesize renders the text report for one of the paper's programs. The
// issues match the paper's Table 6 rows (and, for norm, its Table 3).
func Synthesize(program string) (string, error) {
	var issues []corpus.Query
	switch program {
	case "knnjoin", "knnjoin_opt", "trans", "trans_opt":
		for _, q := range corpus.CUDAQueries() {
			if q.Report == program {
				issues = append(issues, q)
			}
		}
	case "norm":
		// the user-study program of §4.1: register usage + divergence
		issues = []corpus.Query{
			{
				Report: "norm",
				Issue:  "GPU Utilization May Be Limited By Register Usage",
				Text: "GPU utilization may be limited by register usage. " +
					"Theoretical occupancy is less than 100% but is large enough " +
					"that increasing occupancy may not improve performance. The " +
					"kernel uses 31 registers for each thread (7936 registers for " +
					"each block). Control register usage and occupancy, keep more " +
					"warps and blocks resident, and hide instruction latency.",
				Subtopic: "instr-latency",
			},
			{
				Report: "norm",
				Issue:  "Divergent Branches",
				Text: "Divergent branches. Compute resources are used most " +
					"efficiently when all threads in a warp have the same branching " +
					"behavior. When this does not occur the branch is said to be " +
					"divergent. Divergent branches lower warp execution efficiency " +
					"which leads to inefficient use of the GPU's compute resources. " +
					"Rewrite the thread ID dependent condition to minimize divergent warps.",
				Subtopic: "divergence",
			},
		}
	default:
		return "", fmt.Errorf("nvvp: unknown program %q (known: %s)", program, strings.Join(Programs(), ", "))
	}

	var b strings.Builder
	b.WriteString("=== NVVP Analysis Report ===\n")
	fmt.Fprintf(&b, "Program: %s.cu\n\n", program)
	b.WriteString("-- 1. Overview --\n")
	fmt.Fprintf(&b, "The most time-consuming kernel of %s.cu was analyzed over one run.\n", program)
	if len(issues) == 0 {
		b.WriteString("No further performance issues were detected in the later sections.\n")
	}
	b.WriteString("\n")
	// group issues by analysis section; emit all three standard sections
	order := []string{"Instruction and Memory Latency", "Compute Resources", "Memory Bandwidth"}
	for si, secTitle := range order {
		fmt.Fprintf(&b, "-- %d. %s --\n", si+2, secTitle)
		any := false
		for _, q := range issues {
			if sectionFor(q.Subtopic) != secTitle {
				continue
			}
			any = true
			fmt.Fprintf(&b, "Optimization: %s\n", q.Issue)
			b.WriteString(wrap(q.Text, 76))
			b.WriteString("\n")
		}
		if !any {
			b.WriteString("No issues detected in this aspect.\n")
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// wrap folds text at the given column for readable reports.
func wrap(text string, col int) string {
	words := strings.Fields(text)
	var b strings.Builder
	line := 0
	for i, w := range words {
		if line > 0 && line+1+len(w) > col {
			b.WriteByte('\n')
			line = 0
		} else if i > 0 {
			b.WriteByte(' ')
			line++
		}
		b.WriteString(w)
		line += len(w)
	}
	b.WriteByte('\n')
	return b.String()
}
