//! Row-major 2-D image buffer.
//!
//! The microscopy tiles the paper processes are 16-bit grayscale
//! (1392×1040, 2.76 MB each); [`Image<u16>`] is the working representation
//! throughout the system, with `f64` views for the numeric kernels. A
//! large image's buffer comes from, and on drop goes back to, the
//! [`buf`](crate::buf) recycler.

use crate::buf;

/// A row-major 2-D raster. Pixel `(x, y)` lives at index `y * width + x`.
#[derive(Clone, PartialEq, Debug)]
pub struct Image<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Image<T> {
    /// Creates a `width × height` image filled with `T::default()`, on a
    /// recycled buffer when it is large ([`buf::take`]).
    pub fn new(width: usize, height: usize) -> Image<T> {
        Image {
            width,
            height,
            data: buf::take(width * height),
        }
    }

    /// Creates an image filled with `value`.
    pub fn filled(width: usize, height: usize, value: T) -> Image<T> {
        Image {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Wraps an existing buffer. Panics if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Image<T> {
        assert_eq!(data.len(), width * height, "buffer size mismatch");
        Image {
            width,
            height,
            data,
        }
    }

    /// Builds an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Image<T> {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Image {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the image has zero pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(width, height)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Pixel at `(x, y)`. Panics out of bounds — in release builds too:
    /// a `debug_assert!` here once let `get(width, 0)` silently alias
    /// pixel `(0, 1)` through the row-major index. Hot kernels that have
    /// already validated their bounds should iterate [`Image::row`] /
    /// [`Image::pixels`] slices instead of calling this per pixel.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds for {}x{} image",
            self.width,
            self.height
        );
        self.data[y * self.width + x]
    }

    /// Sets pixel `(x, y)`. Panics out of bounds — in release builds too
    /// (see [`Image::get`]).
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds for {}x{} image",
            self.width,
            self.height
        );
        self.data[y * self.width + x] = v;
    }

    /// Row `y` as a slice.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Row `y` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// The full pixel buffer.
    #[inline]
    pub fn pixels(&self) -> &[T] {
        &self.data
    }

    /// The full pixel buffer, mutable.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the image, returning its buffer.
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }

    /// Copies the rectangle `(x0, y0) .. (x0+w, y0+h)` into a new image.
    /// Panics if the rectangle exceeds the bounds.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Image<T> {
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop out of bounds"
        );
        let mut out = Vec::with_capacity(w * h);
        for y in y0..y0 + h {
            out.extend_from_slice(&self.data[y * self.width + x0..y * self.width + x0 + w]);
        }
        Image::from_vec(w, h, out)
    }

    /// Maps every pixel through `f` into a new image (possibly of another
    /// pixel type).
    pub fn map<U: Copy + Default>(&self, f: impl Fn(T) -> U) -> Image<U> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl<T> Drop for Image<T> {
    fn drop(&mut self) {
        buf::give(std::mem::take(&mut self.data));
    }
}

/// The one `f64 → u16` pixel conversion: clamp to `[0, 65535]`, round half
/// away from zero. Equal to `v.clamp(0.0, 65535.0).round() as u16` for
/// every `f64`, NaN (→ 0) and ±∞ included — but `f64::round` is a libm
/// call on the baseline x86-64 target, and a saturating `as` cast is a
/// compare-and-select chain LLVM leaves scalar; either keeps the pixel
/// loop around it scalar. Here every step has a packed SSE2 form: `max`
/// drops a NaN operand (so NaN → 0), the clamped value truncates exactly
/// (it is non-negative, so truncation is floor), its fraction `v − t` is
/// exact, and a fraction of one half or more rounds up.
#[inline]
#[allow(clippy::manual_clamp)] // `clamp` keeps a NaN, which the cast below must not see
pub fn round_to_u16(v: f64) -> u16 {
    let v = v.max(0.0).min(65535.0);
    // SAFETY: `v` is finite and in [0, 65535], so it truncates into an i32
    let t = unsafe { v.to_int_unchecked::<i32>() };
    (t + i32::from(v - f64::from(t) >= 0.5)) as u16
}

impl Image<u16> {
    /// Approximate in-memory footprint in bytes (the paper tracks this:
    /// 1392×1040×2 B = 2.76 MB per tile).
    pub fn byte_size(&self) -> usize {
        self.data.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut img: Image<u16> = Image::new(4, 3);
        assert_eq!(img.dims(), (4, 3));
        assert_eq!(img.len(), 12);
        img.set(2, 1, 77);
        assert_eq!(img.get(2, 1), 77);
        assert_eq!(img.pixels()[4 + 2], 77);
    }

    #[test]
    fn from_fn_layout() {
        let img = Image::from_fn(3, 2, |x, y| (10 * y + x) as u16);
        assert_eq!(img.pixels(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(img.row(1), &[10, 11, 12]);
    }

    #[test]
    fn crop_contents() {
        let img = Image::from_fn(5, 4, |x, y| (y * 5 + x) as u16);
        let c = img.crop(1, 1, 3, 2);
        assert_eq!(c.dims(), (3, 2));
        assert_eq!(c.pixels(), &[6, 7, 8, 11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_row_end_panics_instead_of_aliasing() {
        // Regression: with only a debug_assert!, release builds resolved
        // get(width, 0) to index `width` — i.e. pixel (0, 1) — and
        // silently returned the wrong pixel. The check must be a real
        // assert so both build profiles panic.
        let img = Image::from_fn(4, 3, |x, y| (10 * y + x) as u16);
        assert_eq!(img.get(0, 1), 10, "the pixel (4, 0) used to alias");
        img.get(4, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut img: Image<u16> = Image::new(4, 3);
        img.set(0, 3, 1);
    }

    #[test]
    #[should_panic]
    fn crop_out_of_bounds_panics() {
        let img: Image<u16> = Image::new(4, 4);
        img.crop(2, 2, 3, 3);
    }

    #[test]
    fn byte_size_is_two_per_pixel() {
        let img = Image::from_vec(2, 2, vec![1u16, 3, 5, 7]);
        assert_eq!(img.byte_size(), 8);
    }

    #[test]
    fn empty_image() {
        let img: Image<u16> = Image::new(0, 0);
        assert!(img.is_empty());
    }

    #[test]
    fn round_to_u16_is_clamp_round_cast_for_every_f64() {
        let check = |v: f64| {
            let want = v.clamp(0.0, 65535.0).round() as u16;
            assert_eq!(round_to_u16(v), want, "{v:e} ({:#x})", v.to_bits());
        };
        // every tie and its two neighbours, where truncate-and-compare
        // could go wrong
        for k in 0..65535u32 {
            let tie = k as f64 + 0.5;
            for v in [tie, tie.next_down(), tie.next_up(), k as f64] {
                check(v);
                check(-v);
            }
        }
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            0.5f64.next_down(),
            65534.5,
            65535.0,
            65535.0f64.next_up(),
            65535.49,
            65536.0,
            1e300,
            -1e-300,
            f64::MAX,
            f64::MIN,
        ];
        specials.into_iter().for_each(check);
        // 10⁶ random bit patterns (splitmix64), then 10⁶ in the pixel range
        let mut s = 0x2014_u64;
        let mut next = || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for _ in 0..1_000_000 {
            check(f64::from_bits(next()));
            check((next() >> 11) as f64 / (1u64 << 53) as f64 * 70_000.0 - 1_000.0);
        }
    }

    #[test]
    fn paper_tile_byte_size() {
        // §I: each 1392×1040 16-bit tile is 2.76 MB.
        let img: Image<u16> = Image::new(1392, 1040);
        assert_eq!(img.byte_size(), 2_895_360);
    }
}
