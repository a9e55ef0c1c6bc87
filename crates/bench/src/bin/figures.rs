//! Figs 6–10 and both ablations from `rotary_bench::figures::table`, run
//! from the repository root: writes `FIGURES.json` and EXPERIMENTS.md's
//! marked blocks, prints each figure, and then exits 1 if a claim left its
//! declared status.

use std::fs;

use rotary_bench::figures::{self, render_view};
use rotary_bench::must;

fn main() {
    let doc = must("read EXPERIMENTS.md", fs::read_to_string("EXPERIMENTS.md"));
    let table = figures::table();
    let results = must("run the experiment table", table.run(&table.seeds));
    let doc = must("render EXPERIMENTS.md", figures::render_doc(&doc, &table, &results));
    must("write FIGURES.json", fs::write("FIGURES.json", must("encode", table.to_json(&results))));
    must("write EXPERIMENTS.md", fs::write("EXPERIMENTS.md", doc));
    for view in &table.views {
        let body = must("render a figure", render_view(view, &results));
        println!("{}\n\n{body}", view.title);
    }
    let flipped = must("judge the claims", table.flipped(&results));
    if !flipped.is_empty() {
        eprintln!("claims left their declared status:\n{}", flipped.join("\n"));
        std::process::exit(1);
    }
}
