//! The CosmoTools configuration file ("input deck").
//!
//! HACC's input deck contains a trigger for CosmoTools plus a pointer to the
//! CosmoTools configuration file, which lists each analysis tool, the time
//! steps at which to run it, and its parameters (paper §3). The format here
//! is INI-like: `[section]` headers (one per analysis tool), `key = value`
//! lines, `#` comments.

use std::collections::BTreeMap;

/// Parsed configuration: section → key → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, String>>,
}

/// Configuration errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A non-comment line had no `=` and was not a section header.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Offending content.
        content: String,
    },
    /// Requested key missing.
    MissingKey {
        /// Section name.
        section: String,
        /// Key name.
        key: String,
    },
    /// Value failed to parse as the requested type.
    BadValue {
        /// Section name.
        section: String,
        /// Key name.
        key: String,
        /// The raw value.
        value: String,
        /// Target type name.
        wanted: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Malformed { line, content } => {
                write!(f, "malformed config line {line}: `{content}`")
            }
            ConfigError::MissingKey { section, key } => {
                write!(f, "missing key `{key}` in section [{section}]")
            }
            ConfigError::BadValue {
                section,
                key,
                value,
                wanted,
            } => write!(
                f,
                "bad value `{value}` for [{section}] {key}: expected {wanted}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parse from text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::from("global");
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                cfg.sections.entry(section.clone()).or_default();
                continue;
            }
            match line.split_once('=') {
                Some((k, v)) => {
                    cfg.sections
                        .entry(section.clone())
                        .or_default()
                        .insert(k.trim().to_string(), v.trim().to_string());
                }
                None => {
                    return Err(ConfigError::Malformed {
                        line: ln + 1,
                        content: raw.to_string(),
                    })
                }
            }
        }
        Ok(cfg)
    }

    /// True if the section exists.
    pub fn has_section(&self, section: &str) -> bool {
        self.sections.contains_key(section)
    }

    /// Raw string value.
    pub fn get(&self, section: &str, key: &str) -> Result<&str, ConfigError> {
        self.sections
            .get(section)
            .and_then(|s| s.get(key))
            .map(|s| s.as_str())
            .ok_or_else(|| ConfigError::MissingKey {
                section: section.to_string(),
                key: key.to_string(),
            })
    }

    /// Value with a default when the key (or section) is absent.
    pub fn get_or<'a>(&'a self, section: &str, key: &str, default: &'a str) -> &'a str {
        self.get(section, key).unwrap_or(default)
    }

    fn typed<T: std::str::FromStr>(
        &self,
        section: &str,
        key: &str,
        wanted: &'static str,
    ) -> Result<T, ConfigError> {
        let raw = self.get(section, key)?;
        raw.parse().map_err(|_| ConfigError::BadValue {
            section: section.to_string(),
            key: key.to_string(),
            value: raw.to_string(),
            wanted,
        })
    }

    /// Typed getters.
    pub fn get_f64(&self, section: &str, key: &str) -> Result<f64, ConfigError> {
        self.typed(section, key, "f64")
    }

    /// Integer getter.
    pub fn get_usize(&self, section: &str, key: &str) -> Result<usize, ConfigError> {
        self.typed(section, key, "usize")
    }

    /// Boolean getter (`true/false/1/0/yes/no`).
    pub fn get_bool(&self, section: &str, key: &str) -> Result<bool, ConfigError> {
        let raw = self.get(section, key)?;
        match raw.to_ascii_lowercase().as_str() {
            "true" | "1" | "yes" | "on" => Ok(true),
            "false" | "0" | "no" | "off" => Ok(false),
            _ => Err(ConfigError::BadValue {
                section: section.to_string(),
                key: key.to_string(),
                value: raw.to_string(),
                wanted: "bool",
            }),
        }
    }

    /// Comma-separated step list, e.g. `at_steps = 60, 64, 73, 100`.
    pub fn get_steps(&self, section: &str, key: &str) -> Result<Vec<usize>, ConfigError> {
        let raw = self.get(section, key)?;
        raw.split(',')
            .map(|s| {
                s.trim().parse().map_err(|_| ConfigError::BadValue {
                    section: section.to_string(),
                    key: key.to_string(),
                    value: raw.to_string(),
                    wanted: "comma-separated usize list",
                })
            })
            .collect()
    }

    /// Set a value (computational-steering path: the paper notes the setup is
    /// reconfigurable "even while the simulation is running").
    pub fn set(&mut self, section: &str, key: &str, value: &str) {
        self.sections
            .entry(section.to_string())
            .or_default()
            .insert(key.to_string(), value.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full CosmoTools deck mirroring the analyses of §4.2.
    fn default_deck() -> &'static str {
        "# CosmoTools analysis configuration\n\
         [powerspectrum]\n\
         enabled = true\n\
         every = 10\n\
         bins = 32\n\
         \n\
         [halofinder]\n\
         enabled = true\n\
         linking_length = 0.2   # in mean interparticle spacings\n\
         min_size = 40\n\
         center_threshold = 300000\n\
         at_final_step = true\n\
         \n\
         [subhalos]\n\
         enabled = false\n\
         min_parent_size = 5000\n"
    }

    #[test]
    fn parses_default_deck() {
        let cfg = Config::parse(default_deck()).unwrap();
        assert!(cfg.has_section("powerspectrum"));
        assert!(cfg.has_section("halofinder"));
        assert_eq!(cfg.get_usize("powerspectrum", "every").unwrap(), 10);
        assert_eq!(cfg.get_f64("halofinder", "linking_length").unwrap(), 0.2);
        assert!(cfg.get_bool("halofinder", "at_final_step").unwrap());
        assert!(!cfg.get_bool("subhalos", "enabled").unwrap());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let cfg = Config::parse("# top\n\n[a]\nx = 1 # trailing\n").unwrap();
        assert_eq!(cfg.get_usize("a", "x").unwrap(), 1);
    }

    #[test]
    fn keys_before_any_section_go_to_global() {
        let cfg = Config::parse("answer = 42\n").unwrap();
        assert_eq!(cfg.get_usize("global", "answer").unwrap(), 42);
    }

    #[test]
    fn malformed_line_is_reported_with_number() {
        let err = Config::parse("[a]\nok = 1\nnot a kv line\n").unwrap_err();
        assert_eq!(
            err,
            ConfigError::Malformed {
                line: 3,
                content: "not a kv line".to_string()
            }
        );
    }

    #[test]
    fn missing_and_bad_values() {
        let cfg = Config::parse("[a]\nx = abc\n").unwrap();
        assert!(matches!(
            cfg.get_f64("a", "y"),
            Err(ConfigError::MissingKey { .. })
        ));
        assert!(matches!(
            cfg.get_f64("a", "x"),
            Err(ConfigError::BadValue { .. })
        ));
        assert_eq!(cfg.get_or("a", "y", "fallback"), "fallback");
    }

    #[test]
    fn step_lists_parse() {
        let cfg = Config::parse("[h]\nat_steps = 60, 64,73,100\n").unwrap();
        assert_eq!(
            cfg.get_steps("h", "at_steps").unwrap(),
            vec![60, 64, 73, 100]
        );
    }

    #[test]
    fn set_supports_steering() {
        let mut cfg = Config::parse("[h]\nevery = 10\n").unwrap();
        cfg.set("h", "every", "5");
        assert_eq!(cfg.get_usize("h", "every").unwrap(), 5);
    }

    #[test]
    fn bool_spellings() {
        let cfg = Config::parse("[b]\na=yes\nb=OFF\nc=1\nd=false\n").unwrap();
        assert!(cfg.get_bool("b", "a").unwrap());
        assert!(!cfg.get_bool("b", "b").unwrap());
        assert!(cfg.get_bool("b", "c").unwrap());
        assert!(!cfg.get_bool("b", "d").unwrap());
    }
}
