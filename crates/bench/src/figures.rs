//! Shared helpers for the figure pipeline.

use std::fs;
use std::path::Path;

/// Every figure id the `figures` binary can regenerate.
pub fn all_figure_ids() -> Vec<&'static str> {
    vec![
        "fig04a", "fig04b", "fig07", "fig08", "fig11a", "fig11b", "fig13d", "fig14", "fig15a",
        "fig15b", "fig15c", "fig15d", "fig16", "fig17a", "fig17b", "fig17c", "fig18a", "fig18b",
        "fig18c", "fig18d", "fig19",
    ]
}

/// Parses a `figures` or `ablations` command line, `[id ...] [--runs N]`
/// in any order, against the binary's `known` ids. No id, or `all`,
/// selects every known id. `Err` names the first argument that is not a
/// known id or a `--runs` without a positive count, so a typo fails
/// before anything runs.
pub fn parse_selection<'a>(
    args: &[String],
    known: &[&'a str],
    default_runs: usize,
) -> Result<(Vec<&'a str>, usize), String> {
    let mut ids = Vec::new();
    let mut all = false;
    let mut runs = default_runs;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--runs" {
            let v = it.next().map_or("", String::as_str);
            runs = match v.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => return Err(format!("--runs needs a positive count, got {v:?}")),
            };
        } else if a == "all" {
            all = true;
        } else if let Some(id) = known.iter().find(|k| **k == a.as_str()) {
            ids.push(*id);
        } else {
            return Err(format!("unknown id {a:?}"));
        }
    }
    if all || ids.is_empty() {
        ids = known.to_vec();
    }
    Ok((ids, runs))
}

/// Writes a CSV artifact under `results/` (created on demand) and echoes
/// the path.
pub fn write_csv(name: &str, contents: &str) -> std::io::Result<()> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    println!("# wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_cover_every_evaluation_figure() {
        let ids = all_figure_ids();
        assert_eq!(ids.len(), 21);
        assert!(ids.contains(&"fig18c"));
        assert!(ids.contains(&"fig19"));
    }

    #[test]
    fn selection_takes_ids_on_either_side_of_runs() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let known = ["a", "b", "c"];
        let parse = |a: &[&str]| parse_selection(&args(a), &known, 16);
        assert_eq!(parse(&[]), Ok((vec!["a", "b", "c"], 16)));
        assert_eq!(parse(&["c", "--runs", "4", "a"]), Ok((vec!["c", "a"], 4)));
        assert_eq!(parse(&["b", "all"]), Ok((vec!["a", "b", "c"], 16)));
        assert!(parse(&["--runs", "4", "d"]).unwrap_err().contains("\"d\""));
        assert!(parse(&["a", "--runs", "x"]).unwrap_err().contains("\"x\""));
        assert!(parse(&["a", "--runs", "0"]).is_err());
        assert!(parse(&["a", "--runs"]).is_err());
    }
}
