//! YUV4MPEG2 (`.y4m`) reading and writing.
//!
//! The interchange format the command-line tools use: uncompressed 4:2:0
//! frames behind a one-line header, understood by `ffmpeg`, `mpv`,
//! `mjpegtools` and friends. Only the `C420jpeg`/`C420mpeg2`/`C420`
//! colourspaces (all laid out identically at this level) are supported.

use std::io::{BufRead, Write};

use crate::frame::Frame;
use crate::{Error, Result};

/// Stream-level parameters from a Y4M header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Y4mHeader {
    /// Luma width.
    pub width: usize,
    /// Luma height.
    pub height: usize,
    /// Frame rate numerator.
    pub fps_num: u32,
    /// Frame rate denominator.
    pub fps_den: u32,
}

impl Y4mHeader {
    /// Frames per second as a float.
    pub fn fps(&self) -> f64 {
        self.fps_num as f64 / self.fps_den.max(1) as f64
    }
}

/// Reads `.y4m` streams frame by frame.
pub struct Y4mReader<R: BufRead> {
    inner: R,
    header: Y4mHeader,
}

impl<R: BufRead> Y4mReader<R> {
    /// Parses the stream header.
    pub fn new(mut inner: R) -> Result<Self> {
        let mut line = String::new();
        inner
            .read_line(&mut line)
            .map_err(|e| Error::InvalidInput(format!("y4m read error: {e}")))?;
        let line = line.trim_end();
        let mut parts = line.split(' ');
        if parts.next() != Some("YUV4MPEG2") {
            return Err(Error::InvalidInput("not a YUV4MPEG2 stream".into()));
        }
        let mut width = 0usize;
        let mut height = 0usize;
        let mut fps_num = 30;
        let mut fps_den = 1;
        for p in parts {
            let (tag, val) = p.split_at(1);
            match tag {
                "W" => width = val.parse().map_err(|_| bad_param("W", val))?,
                "H" => height = val.parse().map_err(|_| bad_param("H", val))?,
                "F" => {
                    let (n, d) = val.split_once(':').ok_or_else(|| bad_param("F", val))?;
                    fps_num = n.parse().map_err(|_| bad_param("F", val))?;
                    fps_den = d.parse().map_err(|_| bad_param("F", val))?;
                }
                "C" if !val.starts_with("420") => {
                    return Err(Error::Unsupported("y4m colourspaces other than 4:2:0"));
                }
                "I" if val != "p" => {
                    return Err(Error::Unsupported("interlaced y4m input"));
                }
                _ => {} // aspect ratio, extensions: ignored
            }
        }
        if width == 0 || height == 0 || !width.is_multiple_of(2) || !height.is_multiple_of(2) {
            return Err(Error::InvalidInput(format!(
                "bad y4m dimensions {width}x{height}"
            )));
        }
        Ok(Y4mReader {
            inner,
            header: Y4mHeader {
                width,
                height,
                fps_num,
                fps_den,
            },
        })
    }

    /// The stream header.
    pub fn header(&self) -> Y4mHeader {
        self.header
    }

    /// Reads the next frame; `None` at end of stream.
    pub fn read_frame(&mut self) -> Result<Option<Frame>> {
        let mut line = String::new();
        let n = self
            .inner
            .read_line(&mut line)
            .map_err(|e| Error::InvalidInput(format!("y4m read error: {e}")))?;
        if n == 0 {
            return Ok(None);
        }
        if !line.starts_with("FRAME") {
            return Err(Error::InvalidInput(format!(
                "expected FRAME marker, got {line:?}"
            )));
        }
        let (w, h) = (self.header.width, self.header.height);
        let mut frame = Frame::zeroed(w, h);
        self.fill_plane(frame.y.data_mut())?;
        self.fill_plane(frame.cb.data_mut())?;
        self.fill_plane(frame.cr.data_mut())?;
        Ok(Some(frame))
    }

    fn fill_plane(&mut self, buf: &mut [u8]) -> Result<()> {
        self.inner
            .read_exact(buf)
            .map_err(|e| Error::InvalidInput(format!("y4m truncated frame: {e}")))
    }

    /// Reads all remaining frames.
    pub fn read_all(&mut self) -> Result<Vec<Frame>> {
        let mut out = Vec::new();
        while let Some(f) = self.read_frame()? {
            out.push(f);
        }
        Ok(out)
    }
}

/// Writes `.y4m` streams.
pub struct Y4mWriter<W: Write> {
    inner: W,
    header: Y4mHeader,
    wrote_header: bool,
}

impl<W: Write> Y4mWriter<W> {
    /// Creates a writer; the header is emitted with the first frame.
    pub fn new(inner: W, header: Y4mHeader) -> Self {
        Y4mWriter {
            inner,
            header,
            wrote_header: false,
        }
    }

    /// Writes one frame.
    pub fn write_frame(&mut self, frame: &Frame) -> Result<()> {
        if frame.width() != self.header.width || frame.height() != self.header.height {
            return Err(Error::InvalidInput(format!(
                "frame is {}x{}, stream is {}x{}",
                frame.width(),
                frame.height(),
                self.header.width,
                self.header.height
            )));
        }
        let io = |e: std::io::Error| Error::InvalidInput(format!("y4m write error: {e}"));
        if !self.wrote_header {
            writeln!(
                self.inner,
                "YUV4MPEG2 W{} H{} F{}:{} Ip A1:1 C420mpeg2",
                self.header.width, self.header.height, self.header.fps_num, self.header.fps_den
            )
            .map_err(io)?;
            self.wrote_header = true;
        }
        writeln!(self.inner, "FRAME").map_err(io)?;
        for plane in [&frame.y, &frame.cb, &frame.cr] {
            for y in 0..plane.height() {
                // One segment per row on the row-major frames decoders
                // emit; a tiled plane streams tile by tile.
                for seg in plane.row_segments(y) {
                    self.inner.write_all(seg).map_err(io)?;
                }
            }
        }
        Ok(())
    }

    /// Flushes and returns the inner writer.
    pub fn finish(mut self) -> Result<W> {
        self.inner
            .flush()
            .map_err(|e| Error::InvalidInput(format!("y4m flush: {e}")))?;
        Ok(self.inner)
    }
}

fn bad_param(tag: &str, val: &str) -> Error {
    Error::InvalidInput(format!("bad y4m parameter {tag}{val}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn demo_frames(n: usize) -> Vec<Frame> {
        (0..n)
            .map(|t| {
                let mut f = Frame::black(32, 16);
                for y in 0..16 {
                    for x in 0..32 {
                        f.y.set(x, y, ((x + y + t * 3) % 256) as u8);
                    }
                }
                f.cb.set(1, 1, t as u8);
                f
            })
            .collect()
    }

    #[test]
    fn round_trip() {
        let frames = demo_frames(3);
        let mut w = Y4mWriter::new(
            Vec::new(),
            Y4mHeader {
                width: 32,
                height: 16,
                fps_num: 30,
                fps_den: 1,
            },
        );
        for f in &frames {
            w.write_frame(f).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = Y4mReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.header().width, 32);
        assert_eq!(r.header().fps(), 30.0);
        let got = r.read_all().unwrap();
        assert_eq!(got.len(), 3);
        for (a, b) in frames.iter().zip(&got) {
            assert!(a == b);
        }
    }

    #[test]
    fn rejects_wrong_magic() {
        assert!(Y4mReader::new(Cursor::new(b"JUNK W2 H2\n".to_vec())).is_err());
    }

    #[test]
    fn rejects_non_420() {
        let hdr = b"YUV4MPEG2 W32 H16 F30:1 C444\n".to_vec();
        assert!(matches!(
            Y4mReader::new(Cursor::new(hdr)),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_truncated_frame() {
        let mut w = Y4mWriter::new(
            Vec::new(),
            Y4mHeader {
                width: 32,
                height: 16,
                fps_num: 30,
                fps_den: 1,
            },
        );
        w.write_frame(&Frame::black(32, 16)).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes.truncate(bytes.len() - 10);
        let mut r = Y4mReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.read_frame().is_err());
    }

    #[test]
    fn size_mismatch_rejected_on_write() {
        let mut w = Y4mWriter::new(
            Vec::new(),
            Y4mHeader {
                width: 32,
                height: 16,
                fps_num: 30,
                fps_den: 1,
            },
        );
        assert!(w.write_frame(&Frame::black(16, 16)).is_err());
    }
}
