//! Tiny hand-rolled argument parser (no external CLI crates on the
//! offline allowlist): `--key value` pairs plus boolean `--flag`s, with
//! typed accessors and error messages naming the offending option.

use sperr_compress_api::Precision;
use std::collections::HashMap;

/// Parsed arguments: option map plus positional words.
#[derive(Debug, Default)]
pub struct Args {
    options: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses raw argv words (without the program/subcommand names)
    /// against what the subcommand accepts: `options` take a value,
    /// `flags` take none, `--help` is a flag everywhere, and any other
    /// `--name` is an error naming it rather than a silently dropped pair.
    pub fn parse(words: &[String], options: &[&str], flags: &[&str]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < words.len() {
            let w = &words[i];
            if let Some(name) = w.strip_prefix("--") {
                if name == "help" || flags.contains(&name) {
                    args.flags.push(name.to_string());
                    i += 1;
                } else if options.contains(&name) {
                    let value = words
                        .get(i + 1)
                        .ok_or_else(|| format!("option --{name} needs a value"))?;
                    if args.options.insert(name.to_string(), value.clone()).is_some() {
                        return Err(format!("option --{name} given twice"));
                    }
                    i += 2;
                } else {
                    return Err(format!("unknown option --{name}"));
                }
            } else {
                args.positional.push(w.clone());
                i += 1;
            }
        }
        Ok(args)
    }

    /// Required string option.
    pub fn req(&self, name: &str) -> Result<&str, String> {
        self.options
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// Optional string option.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Boolean flag presence.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Optional `f64` option.
    pub fn opt_f64(&self, name: &str) -> Result<Option<f64>, String> {
        self.opt(name)
            .map(|v| v.parse::<f64>().map_err(|_| format!("--{name}: not a number: {v}")))
            .transpose()
    }

    /// Optional `usize` option.
    pub fn opt_usize(&self, name: &str) -> Result<Option<usize>, String> {
        self.opt(name)
            .map(|v| v.parse::<usize>().map_err(|_| format!("--{name}: not an integer: {v}")))
            .transpose()
    }

    /// Required `NX,NY[,NZ]` dimension triple.
    pub fn req_dims(&self, name: &str) -> Result<[usize; 3], String> {
        parse_dims(self.req(name)?).map_err(|e| format!("--{name}: {e}"))
    }

    /// Optional dimension triple.
    pub fn opt_dims(&self, name: &str) -> Result<Option<[usize; 3]>, String> {
        self.opt(name)
            .map(|v| parse_dims(v).map_err(|e| format!("--{name}: {e}")))
            .transpose()
    }

    /// Optional voxel-region option (`X0:X1,Y0:Y1,Z0:Z1`).
    pub fn opt_region(&self, name: &str) -> Result<Option<([usize; 3], [usize; 3])>, String> {
        self.opt(name)
            .map(|v| parse_region(v).map_err(|e| format!("--{name}: {e}")))
            .transpose()
    }

    /// Unconsumed positional words (should be empty for our commands).
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// Parses `NX,NY[,NZ]` (missing NZ defaults to 1).
pub fn parse_dims(s: &str) -> Result<[usize; 3], String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.is_empty() || parts.len() > 3 {
        return Err(format!("expected NX,NY[,NZ], got {s}"));
    }
    let mut dims = [1usize; 3];
    for (i, p) in parts.iter().enumerate() {
        dims[i] = p
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("bad dimension {p}"))?;
        if dims[i] == 0 {
            return Err("dimensions must be positive".into());
        }
    }
    Ok(dims)
}

/// Parses `X0:X1,Y0:Y1,Z0:Z1` — half-open voxel ranges per axis, lower
/// bound inclusive, upper exclusive. Axes left out default to `0:1`
/// (so a 2D slice can be named `X0:X1,Y0:Y1`). Returns `(lo, hi)`.
pub fn parse_region(s: &str) -> Result<([usize; 3], [usize; 3]), String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.is_empty() || parts.len() > 3 {
        return Err(format!("expected X0:X1,Y0:Y1,Z0:Z1, got {s}"));
    }
    let mut lo = [0usize; 3];
    let mut hi = [1usize; 3];
    for (i, p) in parts.iter().enumerate() {
        let Some((a, b)) = p.split_once(':') else {
            return Err(format!("axis range {p} is not of the form LO:HI"));
        };
        lo[i] = a.trim().parse::<usize>().map_err(|_| format!("bad coordinate {a}"))?;
        hi[i] = b.trim().parse::<usize>().map_err(|_| format!("bad coordinate {b}"))?;
        if hi[i] <= lo[i] {
            return Err(format!("axis range {p} is empty (upper bound is exclusive)"));
        }
    }
    Ok((lo, hi))
}

/// Scalar element type of raw files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarType {
    F32,
    F64,
}

impl ScalarType {
    /// Bytes per sample.
    pub fn bytes(self) -> usize {
        match self {
            ScalarType::F32 => 4,
            ScalarType::F64 => 8,
        }
    }

    /// The precision a stream records for samples of this width.
    pub fn precision(self) -> Precision {
        match self {
            ScalarType::F32 => Precision::Single,
            ScalarType::F64 => Precision::Double,
        }
    }

    /// The width a stream of `precision` decodes to by default.
    pub fn of(precision: Precision) -> ScalarType {
        match precision {
            Precision::Single => ScalarType::F32,
            Precision::Double => ScalarType::F64,
        }
    }
}

/// Parses `--type f32|f64`.
pub fn parse_type(s: &str) -> Result<ScalarType, String> {
    match s {
        "f32" | "float" | "single" => Ok(ScalarType::F32),
        "f64" | "double" => Ok(ScalarType::F64),
        _ => Err(format!("unknown scalar type {s} (use f32 or f64)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &[&str]) -> Vec<String> {
        s.iter().map(|w| w.to_string()).collect()
    }

    const OPTIONS: &[&str] = &["dims", "pwe", "output"];
    const FLAGS: &[&str] = &["no-lossless", "quiet"];

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(&words(s), OPTIONS, FLAGS)
    }

    #[test]
    fn parses_options_and_flags() {
        let a = parse(&["--dims", "8,8,8", "--pwe", "0.5", "--no-lossless", "--help"]).unwrap();
        assert_eq!(a.req("dims").unwrap(), "8,8,8");
        assert_eq!(a.opt_f64("pwe").unwrap(), Some(0.5));
        assert!(a.flag("no-lossless"));
        assert!(a.flag("help"));
        assert!(!a.flag("quiet"));
        assert!(a.positional().is_empty());
    }

    #[test]
    fn unknown_option_or_flag_is_error_naming_it() {
        // An unknown name with a value, one without, a flag spelled as an
        // option elsewhere, and a typo of an accepted name.
        for bad in [&["--bogus", "1"][..], &["--verify"], &["--dims", "8,8", "--theads", "8"]] {
            let err = parse(bad).unwrap_err();
            let name = bad.iter().rfind(|w| w.starts_with("--")).unwrap();
            assert!(err.contains("unknown option") && err.contains(name), "{bad:?}: {err}");
        }
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["--dims"]).is_err());
    }

    #[test]
    fn duplicate_option_is_error() {
        assert!(parse(&["--pwe", "1", "--pwe", "2"]).is_err());
    }

    #[test]
    fn missing_required_reported_by_name() {
        let a = parse(&[]).unwrap();
        let err = a.req("output").unwrap_err();
        assert!(err.contains("--output"));
    }

    #[test]
    fn dims_parsing() {
        assert_eq!(parse_dims("4,5,6").unwrap(), [4, 5, 6]);
        assert_eq!(parse_dims("128,128").unwrap(), [128, 128, 1]);
        assert!(parse_dims("0,1,1").is_err());
        assert!(parse_dims("1,2,3,4").is_err());
        assert!(parse_dims("a,b").is_err());
    }

    #[test]
    fn region_parsing() {
        assert_eq!(parse_region("0:4,2:6,1:3").unwrap(), ([0, 2, 1], [4, 6, 3]));
        assert_eq!(parse_region("3:17,0:9").unwrap(), ([3, 0, 0], [17, 9, 1]));
        assert!(parse_region("4:4,0:1,0:1").is_err(), "empty range");
        assert!(parse_region("5:3,0:1,0:1").is_err(), "inverted range");
        assert!(parse_region("1,2,3").is_err(), "no colon");
        assert!(parse_region("0:a,0:1,0:1").is_err(), "non-numeric");
        assert!(parse_region("0:1,0:1,0:1,0:1").is_err(), "too many axes");
    }

    #[test]
    fn type_parsing() {
        assert_eq!(parse_type("f32").unwrap(), ScalarType::F32);
        assert_eq!(parse_type("double").unwrap(), ScalarType::F64);
        assert!(parse_type("int").is_err());
    }
}
