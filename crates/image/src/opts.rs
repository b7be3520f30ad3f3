//! The one option reader: every piece of option text that enters the
//! system from outside — `stitch` command lines, job-file and `submit`
//! lines, serve requests, `--fault-spec` strings and `manifest.tsv`
//! headers — is tokenised here, read through typed `take` calls with one
//! error wording, and closed with [`Options::finish`], which names the
//! first key nothing read. Plate geometry is read and range-checked in
//! one place, [`Options::take_scan`].
//!
//! ```
//! use stitch_image::opts::Options;
//! let mut o = Options::from_pairs("name=a grid=2x3 threads=2".split_whitespace()).unwrap();
//! assert_eq!(o.take::<String>("name").unwrap().as_deref(), Some("a"));
//! assert_eq!(o.take_count("threads").unwrap(), Some(2));
//! assert!(o.finish().unwrap_err().contains("unknown key 'grid'"));
//! ```

use std::fmt::Display;
use std::str::FromStr;

use crate::synth::ScanConfig;

struct Entry<'a> {
    key: &'a str,
    value: &'a str,
    read: bool,
}

/// How a site spells a two-number dimension of the plate geometry.
#[derive(Clone, Copy)]
pub enum Dims<'k> {
    /// One `key=AxB` pair (`grid=4x5`).
    Pair(&'k str),
    /// One number under each key (`--rows 4 --cols 5`).
    Each(&'k str, &'k str),
}

/// Tokenised options plus a ledger of which ones were read. A key given
/// twice keeps its last value.
pub struct Options<'a> {
    /// The sub-command for `--flag value` argv (keys print as `--key`);
    /// `None` for `key=value` text.
    command: Option<&'a str>,
    entries: Vec<Entry<'a>>,
}

impl<'a> Options<'a> {
    /// Tokenises the `--flag value` arguments of sub-command `command`;
    /// the flags in `switches` take no value and read as `true`.
    pub fn from_args(
        command: &'a str,
        args: &'a [String],
        switches: &[&str],
    ) -> Result<Options<'a>, String> {
        let mut entries = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = if switches.contains(&key) {
                "true"
            } else {
                args.next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?
            };
            entries.push(Entry {
                key,
                value,
                read: false,
            });
        }
        Ok(Options {
            command: Some(command),
            entries,
        })
    }

    /// Tokenises `key=value` tokens; the caller splits the text on its
    /// own separator (whitespace for job and request lines, commas for
    /// fault specs). Blank tokens are skipped.
    pub fn from_pairs(tokens: impl IntoIterator<Item = &'a str>) -> Result<Options<'a>, String> {
        let mut entries = Vec::new();
        for token in tokens.into_iter().map(str::trim) {
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{token}'"))?;
            entries.push(Entry {
                key: key.trim(),
                value: value.trim(),
                read: false,
            });
        }
        Ok(Options {
            command: None,
            entries,
        })
    }

    /// Marks every occurrence of `key` read and returns the last value.
    fn raw(&mut self, key: &str) -> Option<&'a str> {
        let mut found = None;
        for e in self.entries.iter_mut().filter(|e| e.key == key) {
            e.read = true;
            found = Some(e.value);
        }
        found
    }

    fn bad(&self, key: &str, value: &str, why: impl Display) -> String {
        let dashes = if self.command.is_some() { "--" } else { "" };
        format!("bad value {value:?} for {dashes}{key}: {why}")
    }

    /// Reads `key` as a `T`; `None` when absent.
    pub fn take<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let Some(value) = self.raw(key) else {
            return Ok(None);
        };
        value.parse().map(Some).map_err(|e| self.bad(key, value, e))
    }

    /// Reads `key` as a count that must be at least 1.
    pub fn take_count(&mut self, key: &str) -> Result<Option<usize>, String> {
        match self.take(key)? {
            Some(0) => Err(self.bad(key, "0", "must be at least 1")),
            n => Ok(n),
        }
    }

    /// Reads `key=A<sep>B` (e.g. `grid=4x5`).
    fn take_pair(&mut self, key: &str, sep: char) -> Result<Option<(usize, usize)>, String> {
        let Some(value) = self.raw(key) else {
            return Ok(None);
        };
        self.pair(key, value, value, sep).map(Some)
    }

    /// Reads `key=A<sep>B<join>C<sep>D…` (e.g. `corrupt=0.1+2.3`); empty
    /// when absent.
    pub fn take_pairs(
        &mut self,
        key: &str,
        sep: char,
        join: char,
    ) -> Result<Vec<(usize, usize)>, String> {
        let Some(value) = self.raw(key) else {
            return Ok(Vec::new());
        };
        let items = value.split(join).filter(|item| !item.is_empty());
        items.map(|item| self.pair(key, value, item, sep)).collect()
    }

    fn pair(
        &self,
        key: &str,
        value: &str,
        item: &str,
        sep: char,
    ) -> Result<(usize, usize), String> {
        item.split_once(sep)
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or_else(|| self.bad(key, value, format_args!("expected A{sep}B")))
    }

    /// Reads plate geometry over the site's `defaults` and range-checks it
    /// ([`ScanConfig::validate`]). `grid` and `tile` carry the site's
    /// spelling; `overlap` and `seed` are spelled the same everywhere.
    pub fn take_scan(
        &mut self,
        defaults: ScanConfig,
        grid: Dims,
        tile: Dims,
    ) -> Result<ScanConfig, String> {
        let (grid_rows, grid_cols) =
            self.take_dims(grid, (defaults.grid_rows, defaults.grid_cols))?;
        let (tile_width, tile_height) =
            self.take_dims(tile, (defaults.tile_width, defaults.tile_height))?;
        let scan = ScanConfig {
            grid_rows,
            grid_cols,
            tile_width,
            tile_height,
            overlap: self.take("overlap")?.unwrap_or(defaults.overlap),
            seed: self.take("seed")?.unwrap_or(defaults.seed),
            ..defaults
        };
        scan.validate()?;
        Ok(scan)
    }

    fn take_dims(&mut self, keys: Dims, default: (usize, usize)) -> Result<(usize, usize), String> {
        Ok(match keys {
            Dims::Pair(key) => self.take_pair(key, 'x')?.unwrap_or(default),
            Dims::Each(a, b) => (
                self.take(a)?.unwrap_or(default.0),
                self.take(b)?.unwrap_or(default.1),
            ),
        })
    }

    /// Errors on the first key no `take` read: `unknown flag --x for
    /// 'cmd'` for argv, `unknown key 'x'` for `key=value` text.
    pub fn finish(self) -> Result<(), String> {
        match (self.entries.iter().find(|e| !e.read), self.command) {
            (None, _) => Ok(()),
            (Some(e), Some(cmd)) => Err(format!("unknown flag --{} for '{cmd}'", e.key)),
            (Some(e), None) => Err(format!("unknown key '{}'", e.key)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_take_typed_values_and_switches() {
        let args = argv("--threads 4 --highlight --out m.pgm --threads 8");
        let mut o = Options::from_args("stitch", &args, &["highlight"]).unwrap();
        assert_eq!(o.take::<usize>("threads").unwrap(), Some(8), "last wins");
        assert_eq!(o.take::<bool>("highlight").unwrap(), Some(true));
        assert_eq!(o.take::<u32>("retries").unwrap(), None);
        assert_eq!(
            o.finish().unwrap_err(),
            "unknown flag --out for 'stitch'",
            "an unread flag is a typo, not a no-op"
        );
        assert!(Options::from_args("stitch", &argv("--out"), &[]).is_err());
        assert!(Options::from_args("stitch", &argv("stray"), &[]).is_err());
    }

    #[test]
    fn one_error_wording_names_the_key_and_value() {
        let args = argv("--threads x --workers 0");
        let mut o = Options::from_args("shard", &args, &[]).unwrap();
        let err = o.take::<usize>("threads").unwrap_err();
        assert!(err.starts_with("bad value \"x\" for --threads: "), "{err}");
        let err = o.take_count("workers").unwrap_err();
        assert!(
            err.contains("--workers") && err.contains("at least 1"),
            "{err}"
        );
        let mut o = Options::from_pairs(["grid=2", "scale=no"]).unwrap();
        assert!(o
            .take_pair("grid", 'x')
            .unwrap_err()
            .contains("expected AxB"));
        let err = o.take::<usize>("scale").unwrap_err();
        assert!(err.starts_with("bad value \"no\" for scale: "), "{err}");
    }

    #[test]
    fn pairs_are_trimmed_and_lists_split() {
        let mut o = Options::from_pairs(" seed = 7 ,, corrupt=0.1+2.3 ".split(',')).unwrap();
        assert_eq!(o.take::<u64>("seed").unwrap(), Some(7));
        assert_eq!(
            o.take_pairs("corrupt", '.', '+').unwrap(),
            vec![(0, 1), (2, 3)]
        );
        o.finish().unwrap();
        assert!(Options::from_pairs(["bare"]).is_err());
        let o = Options::from_pairs(["bogus=1"]).unwrap();
        assert_eq!(o.finish().unwrap_err(), "unknown key 'bogus'");
    }

    #[test]
    fn scan_geometry_is_read_in_either_spelling_and_range_checked() {
        const GRID: Dims = Dims::Pair("grid");
        const TILE: Dims = Dims::Pair("tile");
        let base = ScanConfig::default();
        let mut o = Options::from_pairs(["grid=2x3", "tile=32x24", "seed=9"]).unwrap();
        let scan = o.take_scan(base.clone(), GRID, TILE).unwrap();
        assert_eq!((scan.grid_rows, scan.grid_cols), (2, 3));
        assert_eq!((scan.tile_width, scan.tile_height, scan.seed), (32, 24, 9));
        assert_eq!(scan.overlap, base.overlap, "absent keys keep the default");

        let args = argv("--rows 6 --tile-height 48 --overlap 0.2");
        let mut o = Options::from_args("shard", &args, &[]).unwrap();
        let scan = o
            .take_scan(
                base.clone(),
                Dims::Each("rows", "cols"),
                Dims::Each("tile-width", "tile-height"),
            )
            .unwrap();
        assert_eq!((scan.grid_rows, scan.grid_cols), (6, base.grid_cols));
        assert_eq!((scan.tile_width, scan.tile_height), (base.tile_width, 48));
        assert_eq!(scan.overlap, 0.2);

        for bad in [
            "tile=0x0",
            "grid=0x2",
            "overlap=nan",
            "overlap=5",
            "overlap=-1",
        ] {
            let mut o = Options::from_pairs([bad]).unwrap();
            let err = o.take_scan(base.clone(), GRID, TILE).unwrap_err();
            assert!(err.contains(bad.split('=').next().unwrap()), "{bad}: {err}");
        }
    }
}
