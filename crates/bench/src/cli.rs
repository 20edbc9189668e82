//! Argument helpers shared by the workspace's command-line tools
//! (`figures`, `perf`, `replay`, and `served` in `wsn-serve`).

use std::path::PathBuf;

/// Where tools write artifacts by default: `$WSN_RESULTS_DIR`, else
/// `results/` relative to the working directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("WSN_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Consumes `--flag value` / `--flag=value` from `args`.
///
/// # Errors
///
/// When `flag` is the last argument, with no value after it.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        return Ok(Some(v));
    }
    let prefix = format!("{flag}=");
    if let Some(i) = args.iter().position(|a| a.starts_with(&prefix)) {
        return Ok(Some(args.remove(i)[prefix.len()..].to_owned()));
    }
    Ok(None)
}

/// Consumes a bare `--flag` switch from `args`.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}
