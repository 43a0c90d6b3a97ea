//! Shared reporting helpers for the `sysunc` experiment harness.
//!
//! Each experiment binary (`src/bin/exp_*.rs`) regenerates one
//! table/figure-equivalent of the paper (see EXPERIMENTS.md at the
//! workspace root); the helpers here keep their output format uniform.
//! Speed is measured by the workspace benchmark in `perfbench/`, not
//! here.

/// Prints an experiment header.
pub fn header(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Prints a section divider.
pub fn section(title: &str) {
    println!("\n--- {title} ---");
}

/// Prints a row of labeled values with fixed-width alignment.
pub fn row(label: &str, values: &[(&str, f64)]) {
    print!("  {label:<32}");
    for (name, v) in values {
        print!(" {name}={v:<12.6}");
    }
    println!();
}

/// Formats a probability vector.
pub fn prob_vec(v: &[f64]) -> String { // tidy: allow(prob-contract)
    let parts: Vec<String> = v.iter().map(|p| format!("{p:.4}")).collect();
    format!("[{}]", parts.join(", "))
}
