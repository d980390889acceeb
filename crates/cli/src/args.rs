//! Tiny dependency-free argument parsing for the `hwdp` CLI.

use std::collections::BTreeMap;

use hwdp_core::Mode;
use hwdp_nvme::profile::DeviceProfile;
use hwdp_workloads::YcsbKind;

/// Parsed command line: a subcommand plus `--key value` options and bare
/// `--flag`s.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// A parse or validation error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an error when no subcommand is given or an option is
    /// missing its value.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut it = raw.into_iter().peekable();
        let command =
            it.next().ok_or_else(|| ArgError("missing subcommand; try `hwdp help`".into()))?;
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument '{arg}'")));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    options.insert(key.to_string(), it.next().expect("peeked"));
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Args { command, options, flags })
    }

    /// Checks the parsed options against what the subcommand declares:
    /// `options` lists its `--key value` options (in groups, so shared
    /// sets compose) and `flags` its bare `--flag`s. A typo'd option would
    /// otherwise run silently with its default.
    ///
    /// # Errors
    ///
    /// Returns an error for an undeclared option or flag, a flag given a
    /// value, or an option given none.
    pub fn only(&self, options: &[&[&str]], flags: &[&str]) -> Result<(), ArgError> {
        let is_option = |key: &str| options.iter().any(|group| group.contains(&key));
        let cmd = &self.command;
        for key in self.options.keys() {
            if !is_option(key) {
                return Err(ArgError(if flags.contains(&key.as_str()) {
                    format!("--{key} takes no value")
                } else {
                    format!("unknown option --{key} for `{cmd}`")
                }));
            }
        }
        for key in &self.flags {
            if !flags.contains(&key.as_str()) {
                return Err(ArgError(if is_option(key) {
                    format!("--{key} needs a value")
                } else {
                    format!("unknown option --{key} for `{cmd}`")
                }));
            }
        }
        Ok(())
    }

    /// A `--flag` with no value.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    /// A comma-separated list option (`--modes osdp,hwdp`), or `default`
    /// when absent. Empty segments are skipped.
    pub fn list(&self, name: &str, default: &str) -> Vec<String> {
        self.get(name)
            .unwrap_or(default)
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// A floating-point option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn float(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name} expects a number, got '{v}'"))),
        }
    }

    /// A numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn num(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name} expects a number, got '{v}'"))),
        }
    }

    /// The `--mode` option (default HWDP).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown modes.
    pub fn mode(&self) -> Result<Mode, ArgError> {
        match self.get("mode").unwrap_or("hwdp") {
            "osdp" => Ok(Mode::Osdp),
            "hwdp" => Ok(Mode::Hwdp),
            "sw" | "sw-only" | "swonly" => Ok(Mode::SwOnly),
            other => Err(ArgError(format!("unknown --mode '{other}' (osdp|hwdp|sw-only)"))),
        }
    }

    /// The `--device` option (default Z-SSD).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown devices.
    pub fn device(&self) -> Result<DeviceProfile, ArgError> {
        match self.get("device").unwrap_or("zssd") {
            "zssd" | "z-ssd" => Ok(DeviceProfile::Z_SSD),
            "optane" | "optane-ssd" => Ok(DeviceProfile::OPTANE_SSD),
            "pmm" | "optane-pmm" => Ok(DeviceProfile::OPTANE_PMM),
            other => Err(ArgError(format!("unknown --device '{other}' (zssd|optane|pmm)"))),
        }
    }

    /// The `--kind` option for YCSB (default C).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown workload letters.
    pub fn ycsb_kind(&self) -> Result<YcsbKind, ArgError> {
        match self.get("kind").unwrap_or("c") {
            "a" | "A" => Ok(YcsbKind::A),
            "b" | "B" => Ok(YcsbKind::B),
            "c" | "C" => Ok(YcsbKind::C),
            "d" | "D" => Ok(YcsbKind::D),
            "e" | "E" => Ok(YcsbKind::E),
            "f" | "F" => Ok(YcsbKind::F),
            other => Err(ArgError(format!("unknown --kind '{other}' (a..f)"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("fio --threads 4 --seq --mode osdp").unwrap();
        assert_eq!(a.command, "fio");
        assert_eq!(a.num("threads", 1).unwrap(), 4);
        assert!(a.flag("seq"));
        assert_eq!(a.mode().unwrap(), Mode::Osdp);
    }

    #[test]
    fn defaults_apply() {
        let a = parse("fio").unwrap();
        assert_eq!(a.num("threads", 1).unwrap(), 1);
        assert_eq!(a.mode().unwrap(), Mode::Hwdp);
        assert_eq!(a.device().unwrap().name, "Z-SSD SZ985");
        assert!(!a.flag("seq"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("").is_err());
        assert!(parse("fio positional").is_err());
        assert!(parse("fio --threads four").unwrap().num("threads", 1).is_err());
        assert!(parse("fio --mode turbo").unwrap().mode().is_err());
        assert!(parse("fio --device floppy").unwrap().device().is_err());
        assert!(parse("ycsb --kind z").unwrap().ycsb_kind().is_err());
    }

    #[test]
    fn list_and_float_options() {
        let a = parse("sweep --modes osdp,hwdp --ratios 2,4.5").unwrap();
        assert_eq!(a.list("modes", "hwdp"), vec!["osdp", "hwdp"]);
        assert_eq!(a.list("scenarios", "fio"), vec!["fio"]);
        assert_eq!(a.float("threshold", 5.0).unwrap(), 5.0);
        let b = parse("compare --threshold 2.5").unwrap();
        assert_eq!(b.float("threshold", 5.0).unwrap(), 2.5);
        assert!(parse("compare --threshold abc").unwrap().float("threshold", 5.0).is_err());
    }

    #[test]
    fn undeclared_options_are_rejected() {
        let known: &[&[&str]] = &[&["threads", "mode"], &["ops"]];
        assert_eq!(parse("fio --threads 2 --ops 5 --seq").unwrap().only(known, &["seq"]), Ok(()));
        assert_eq!(parse("fio").unwrap().only(&[], &[]), Ok(()));
        let err = |s: &str| parse(s).unwrap().only(known, &["seq"]).unwrap_err().0;
        assert_eq!(err("fio --thread 2"), "unknown option --thread for `fio`");
        assert_eq!(err("fio --sequential"), "unknown option --sequential for `fio`");
        assert_eq!(err("fio --seq 3"), "--seq takes no value");
        assert_eq!(err("fio --ops"), "--ops needs a value");
    }

    #[test]
    fn ycsb_kinds_parse() {
        for (s, k) in [("a", YcsbKind::A), ("C", YcsbKind::C), ("f", YcsbKind::F)] {
            let a = Args::parse(["ycsb".into(), "--kind".into(), s.into()]).unwrap();
            assert_eq!(a.ycsb_kind().unwrap(), k);
        }
    }
}
