//! Sequence, GOP and picture headers plus their MPEG-2 extensions
//! (§6.2/6.3).
//!
//! Parsing functions take a [`BitReader`] positioned immediately **after**
//! the 4-byte start code; writing functions emit the start code themselves.

use tiledec_bitstream::{BitReader, BitWriter};

use crate::tables::quant::{DEFAULT_INTRA_MATRIX, DEFAULT_NON_INTRA_MATRIX};
use crate::tables::scan::ZIGZAG;
use crate::types::{PictureInfo, PictureKind, SequenceInfo};
use crate::{Error, Result};

/// Extension start-code identifier for the sequence extension.
pub const EXT_ID_SEQUENCE: u32 = 0b0001;
/// Extension start-code identifier for the picture coding extension.
pub const EXT_ID_PICTURE_CODING: u32 = 0b1000;

/// Widest picture any decode path accepts: what the 12-bit
/// `horizontal_size_value` carries without a size extension.
pub const MAX_WIDTH: u32 = 4095;
/// Tallest picture any decode path accepts: 175 macroblock rows, the last
/// a slice start code can address without the unsupported
/// `slice_vertical_position_extension`.
pub const MAX_HEIGHT: u32 = 2800;

/// Rejects picture sizes beyond [`MAX_WIDTH`] × [`MAX_HEIGHT`]. Both
/// sequence-header parsers call this, so a header can never make a
/// decoder, planner or splitter size a frame it could not fill.
fn check_dimensions(width: u32, height: u32) -> Result<()> {
    if width > MAX_WIDTH || height > MAX_HEIGHT {
        return Err(Error::Unsupported("pictures larger than 4095x2800"));
    }
    Ok(())
}

/// Group-of-pictures header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GopHeader {
    /// SMPTE-ish 25-bit time code (packed as transmitted).
    pub time_code: u32,
    /// True when the GOP can be decoded without the previous GOP.
    pub closed_gop: bool,
    /// Set by editors when the previous reference was removed.
    pub broken_link: bool,
}

impl Default for GopHeader {
    fn default() -> Self {
        GopHeader {
            time_code: 0,
            closed_gop: true,
            broken_link: false,
        }
    }
}

/// Parses `sequence_header()` (§6.2.2.1). The reader must be positioned
/// right after the `00 00 01 B3` start code.
pub fn parse_sequence_header(r: &mut BitReader<'_>) -> Result<SequenceInfo> {
    let width = r.read_bits(12)?;
    let height = r.read_bits(12)?;
    let _aspect = r.read_bits(4)?;
    let frame_rate_code = r.read_bits(4)? as u8;
    let bit_rate_400 = r.read_bits(18)?;
    r.marker_bit()?;
    let _vbv_buffer_size = r.read_bits(10)?;
    let _constrained = r.read_bit()?;
    let intra_quant_matrix = if r.read_bit()? == 1 {
        read_matrix(r)?
    } else {
        DEFAULT_INTRA_MATRIX
    };
    let non_intra_quant_matrix = if r.read_bit()? == 1 {
        read_matrix(r)?
    } else {
        DEFAULT_NON_INTRA_MATRIX
    };
    if width == 0 || height == 0 {
        return Err(Error::Syntax("zero picture dimensions".into()));
    }
    check_dimensions(width, height)?;
    Ok(SequenceInfo {
        width,
        height,
        frame_rate_code,
        bit_rate_400,
        intra_quant_matrix,
        non_intra_quant_matrix,
    })
}

/// Writes `sequence_header()` followed by the MPEG-2 sequence extension.
pub fn write_sequence_header(w: &mut BitWriter, si: &SequenceInfo) {
    w.put_start_code(tiledec_bitstream::StartCode::SEQUENCE_HEADER);
    w.put_bits(si.width & 0xFFF, 12);
    w.put_bits(si.height & 0xFFF, 12);
    w.put_bits(1, 4); // square pixels
    w.put_bits(si.frame_rate_code as u32, 4);
    w.put_bits(si.bit_rate_400.min((1 << 18) - 1), 18);
    w.put_marker();
    w.put_bits(112, 10); // vbv_buffer_size (16 kbit units); informational here
    w.put_bit(0); // constrained_parameters_flag
    if si.intra_quant_matrix != DEFAULT_INTRA_MATRIX {
        w.put_bit(1);
        write_matrix(w, &si.intra_quant_matrix);
    } else {
        w.put_bit(0);
    }
    if si.non_intra_quant_matrix != DEFAULT_NON_INTRA_MATRIX {
        w.put_bit(1);
        write_matrix(w, &si.non_intra_quant_matrix);
    } else {
        w.put_bit(0);
    }
    write_sequence_extension(w, si);
}

/// Quant matrices travel in zigzag order (§6.3.11).
fn read_matrix(r: &mut BitReader<'_>) -> Result<[u8; 64]> {
    let mut m = [0u8; 64];
    for &raster in ZIGZAG.iter() {
        let v = r.read_bits(8)? as u8;
        if v == 0 {
            return Err(Error::Syntax("zero entry in quantiser matrix".into()));
        }
        m[raster as usize] = v;
    }
    Ok(m)
}

fn write_matrix(w: &mut BitWriter, m: &[u8; 64]) {
    for &raster in ZIGZAG.iter() {
        w.put_bits(m[raster as usize] as u32, 8);
    }
}

/// Parses `sequence_extension()`; the reader must be past the extension
/// identifier nibble. Verifies the stream is within the supported subset.
pub fn parse_sequence_extension(r: &mut BitReader<'_>, si: &mut SequenceInfo) -> Result<()> {
    let _profile_level = r.read_bits(8)?;
    let progressive = r.read_bit()?;
    if progressive != 1 {
        return Err(Error::Unsupported("interlaced sequences"));
    }
    let chroma_format = r.read_bits(2)?;
    if chroma_format != 0b01 {
        return Err(Error::Unsupported("chroma formats other than 4:2:0"));
    }
    let h_ext = r.read_bits(2)?;
    let v_ext = r.read_bits(2)?;
    si.width |= h_ext << 12;
    si.height |= v_ext << 12;
    check_dimensions(si.width, si.height)?;
    let _bit_rate_ext = r.read_bits(12)?;
    r.marker_bit()?;
    let _vbv_ext = r.read_bits(8)?;
    let _low_delay = r.read_bit()?;
    let _fr_ext_n = r.read_bits(2)?;
    let _fr_ext_d = r.read_bits(5)?;
    Ok(())
}

fn write_sequence_extension(w: &mut BitWriter, _si: &SequenceInfo) {
    w.put_start_code(tiledec_bitstream::StartCode::EXTENSION);
    w.put_bits(EXT_ID_SEQUENCE, 4);
    w.put_bits(0x44, 8); // Main profile @ High level
    w.put_bit(1); // progressive_sequence
    w.put_bits(0b01, 2); // 4:2:0
    w.put_bits(0, 2); // horizontal_size_extension
    w.put_bits(0, 2); // vertical_size_extension
    w.put_bits(0, 12); // bit_rate_extension
    w.put_marker();
    w.put_bits(0, 8); // vbv_buffer_size_extension
    w.put_bit(0); // low_delay
    w.put_bits(0, 2); // frame_rate_extension_n
    w.put_bits(0, 5); // frame_rate_extension_d
}

/// Parses `group_of_pictures_header()` after its start code.
pub fn parse_gop_header(r: &mut BitReader<'_>) -> Result<GopHeader> {
    let time_code = r.read_bits(25)?;
    let closed_gop = r.read_bit()? == 1;
    let broken_link = r.read_bit()? == 1;
    Ok(GopHeader {
        time_code,
        closed_gop,
        broken_link,
    })
}

/// Writes `group_of_pictures_header()`.
pub fn write_gop_header(w: &mut BitWriter, gop: &GopHeader) {
    w.put_start_code(tiledec_bitstream::StartCode::GROUP);
    w.put_bits(gop.time_code, 25);
    w.put_bit(gop.closed_gop as u32);
    w.put_bit(gop.broken_link as u32);
}

/// Parses `picture_header()` (§6.2.3) after its start code. The MPEG-2
/// picture coding extension must follow; see
/// [`parse_picture_coding_extension`].
pub fn parse_picture_header(r: &mut BitReader<'_>) -> Result<PictureInfo> {
    let temporal_reference = r.read_bits(10)? as u16;
    let kind_code = r.read_bits(3)?;
    let kind = PictureKind::from_code(kind_code)
        .ok_or_else(|| Error::Syntax(format!("bad picture_coding_type {kind_code}")))?;
    let vbv_delay = r.read_bits(16)? as u16;
    if matches!(kind, PictureKind::P | PictureKind::B) {
        let full_pel_fwd = r.read_bit()?;
        let _fwd_f_code = r.read_bits(3)?;
        if full_pel_fwd != 0 {
            return Err(Error::Unsupported(
                "full_pel vectors (MPEG-1 compatibility)",
            ));
        }
    }
    if matches!(kind, PictureKind::B) {
        let full_pel_bwd = r.read_bit()?;
        let _bwd_f_code = r.read_bits(3)?;
        if full_pel_bwd != 0 {
            return Err(Error::Unsupported(
                "full_pel vectors (MPEG-1 compatibility)",
            ));
        }
    }
    while r.read_bit()? == 1 {
        r.skip(8)?; // extra_information_picture
    }
    // f_codes are placeholders until the picture coding extension arrives.
    let mut pi = PictureInfo::new(kind, temporal_reference, [[15, 15], [15, 15]]);
    pi.vbv_delay = vbv_delay;
    Ok(pi)
}

/// Writes `picture_header()`.
pub fn write_picture_header(w: &mut BitWriter, pi: &PictureInfo) {
    w.put_start_code(tiledec_bitstream::StartCode::PICTURE);
    w.put_bits(pi.temporal_reference as u32, 10);
    w.put_bits(pi.kind.code(), 3);
    w.put_bits(pi.vbv_delay as u32, 16);
    if matches!(pi.kind, PictureKind::P | PictureKind::B) {
        w.put_bit(0); // full_pel_forward_vector
        w.put_bits(7, 3); // forward_f_code: unused in MPEG-2, must be 111
    }
    if matches!(pi.kind, PictureKind::B) {
        w.put_bit(0);
        w.put_bits(7, 3);
    }
    w.put_bit(0); // extra_bit_picture
}

/// Parses `picture_coding_extension()` past the extension id nibble,
/// completing `pi`. Rejects modes outside the supported subset.
pub fn parse_picture_coding_extension(r: &mut BitReader<'_>, pi: &mut PictureInfo) -> Result<()> {
    for s in 0..2 {
        for t in 0..2 {
            pi.f_code[s][t] = r.read_bits(4)? as u8;
        }
    }
    pi.intra_dc_precision = r.read_bits(2)? as u8;
    let picture_structure = r.read_bits(2)?;
    if picture_structure != 0b11 {
        return Err(Error::Unsupported("field pictures"));
    }
    let _top_field_first = r.read_bit()?;
    let frame_pred_frame_dct = r.read_bit()?;
    if frame_pred_frame_dct != 1 {
        return Err(Error::Unsupported("frame_pred_frame_dct = 0"));
    }
    pi.concealment_mv = r.read_bit()? == 1;
    pi.q_scale_type = r.read_bit()? == 1;
    let intra_vlc_format = r.read_bit()?;
    if intra_vlc_format != 0 {
        return Err(Error::Unsupported("intra_vlc_format = 1 (table B-15)"));
    }
    pi.alternate_scan = r.read_bit()? == 1;
    let _repeat_first_field = r.read_bit()?;
    let _chroma_420_type = r.read_bit()?;
    let _progressive_frame = r.read_bit()?;
    let composite = r.read_bit()?;
    if composite == 1 {
        r.skip(20)?; // composite display fields
    }
    Ok(())
}

/// Writes `picture_coding_extension()`.
pub fn write_picture_coding_extension(w: &mut BitWriter, pi: &PictureInfo) {
    w.put_start_code(tiledec_bitstream::StartCode::EXTENSION);
    w.put_bits(EXT_ID_PICTURE_CODING, 4);
    for s in 0..2 {
        for t in 0..2 {
            w.put_bits(pi.f_code[s][t] as u32, 4);
        }
    }
    w.put_bits(pi.intra_dc_precision as u32, 2);
    w.put_bits(0b11, 2); // frame picture
    w.put_bit(0); // top_field_first
    w.put_bit(1); // frame_pred_frame_dct
    w.put_bit(pi.concealment_mv as u32);
    w.put_bit(pi.q_scale_type as u32);
    w.put_bit(0); // intra_vlc_format
    w.put_bit(pi.alternate_scan as u32);
    w.put_bit(0); // repeat_first_field
    w.put_bit(1); // chroma_420_type
    w.put_bit(1); // progressive_frame
    w.put_bit(0); // composite_display_flag
}

/// Writes the sequence end code.
pub fn write_sequence_end(w: &mut BitWriter) {
    w.put_start_code(tiledec_bitstream::StartCode::SEQUENCE_END);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_sequence() -> SequenceInfo {
        SequenceInfo {
            width: 1280,
            height: 720,
            frame_rate_code: 8,
            bit_rate_400: 50000,
            intra_quant_matrix: DEFAULT_INTRA_MATRIX,
            non_intra_quant_matrix: DEFAULT_NON_INTRA_MATRIX,
        }
    }

    fn parse_seq_round_trip(si: &SequenceInfo) -> SequenceInfo {
        let mut w = BitWriter::new();
        write_sequence_header(&mut w, si);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..4], &[0, 0, 1, 0xB3]);
        let mut r = BitReader::at(&bytes, 32);
        let mut parsed = parse_sequence_header(&mut r).unwrap();
        // Skip the extension start code + id and parse the extension.
        r.align_to_byte();
        assert!(r.next_is_start_code());
        r.skip(32).unwrap();
        assert_eq!(r.read_bits(4).unwrap(), EXT_ID_SEQUENCE);
        parse_sequence_extension(&mut r, &mut parsed).unwrap();
        parsed
    }

    #[test]
    fn sequence_header_round_trip_defaults() {
        let si = demo_sequence();
        assert_eq!(parse_seq_round_trip(&si), si);
    }

    #[test]
    fn oversize_pictures_are_unsupported() {
        let at_limit = SequenceInfo {
            width: MAX_WIDTH,
            height: MAX_HEIGHT,
            ..demo_sequence()
        };
        assert_eq!(parse_seq_round_trip(&at_limit), at_limit);

        let header_bytes = |si: &SequenceInfo| {
            let mut w = BitWriter::new();
            write_sequence_header(&mut w, si);
            w.into_bytes()
        };
        let too_tall = header_bytes(&SequenceInfo {
            height: MAX_HEIGHT + 1,
            ..demo_sequence()
        });
        assert!(matches!(
            parse_sequence_header(&mut BitReader::at(&too_tall, 32)),
            Err(Error::Unsupported(_))
        ));

        // The sequence extension is the last 10 bytes (start code + 48
        // bits); the high bit of horizontal_size_extension is bit 15 of
        // its payload, which makes the width 8192 + 1280.
        let mut bytes = header_bytes(&demo_sequence());
        let payload = bytes.len() - 6;
        bytes[payload + 1] |= 1;
        let mut si = parse_sequence_header(&mut BitReader::at(&bytes, 32)).unwrap();
        let mut r = BitReader::at(&bytes, payload * 8 + 4);
        assert!(matches!(
            parse_sequence_extension(&mut r, &mut si),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn sequence_header_round_trip_custom_matrices() {
        let mut si = demo_sequence();
        for (i, v) in si.intra_quant_matrix.iter_mut().enumerate() {
            *v = (8 + i) as u8;
        }
        for (i, v) in si.non_intra_quant_matrix.iter_mut().enumerate() {
            *v = (100 - i) as u8;
        }
        assert_eq!(parse_seq_round_trip(&si), si);
    }

    #[test]
    fn gop_header_round_trip() {
        let gop = GopHeader {
            time_code: 0x123456,
            closed_gop: false,
            broken_link: true,
        };
        let mut w = BitWriter::new();
        write_gop_header(&mut w, &gop);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..4], &[0, 0, 1, 0xB8]);
        let mut r = BitReader::at(&bytes, 32);
        assert_eq!(parse_gop_header(&mut r).unwrap(), gop);
    }

    #[test]
    fn picture_headers_round_trip() {
        for (kind, cmv) in [
            (PictureKind::I, false),
            (PictureKind::P, false),
            (PictureKind::B, false),
            (PictureKind::I, true),
            (PictureKind::P, true),
        ] {
            let mut pi = PictureInfo::new(kind, 7, [[3, 2], [2, 3]]);
            pi.q_scale_type = true;
            pi.alternate_scan = true;
            pi.intra_dc_precision = 1;
            pi.concealment_mv = cmv;
            let mut w = BitWriter::new();
            write_picture_header(&mut w, &pi);
            write_picture_coding_extension(&mut w, &pi);
            let bytes = w.into_bytes();
            let mut r = BitReader::at(&bytes, 32);
            let mut parsed = parse_picture_header(&mut r).unwrap();
            parsed.vbv_delay = pi.vbv_delay;
            r.align_to_byte();
            r.skip(32).unwrap(); // extension start code
            assert_eq!(r.read_bits(4).unwrap(), EXT_ID_PICTURE_CODING);
            parse_picture_coding_extension(&mut r, &mut parsed).unwrap();
            assert_eq!(parsed, pi, "{kind:?}");
        }
    }

    #[test]
    fn field_pictures_rejected() {
        let pi = PictureInfo::new(PictureKind::I, 0, [[15, 15], [15, 15]]);
        let mut w = BitWriter::new();
        // Hand-roll an extension with picture_structure = 01 (bottom field).
        w.put_bits(0xF, 4);
        w.put_bits(0xF, 4);
        w.put_bits(0xF, 4);
        w.put_bits(0xF, 4);
        w.put_bits(0, 2);
        w.put_bits(0b01, 2);
        w.put_bits(0, 10);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut parsed = pi.clone();
        assert!(matches!(
            parse_picture_coding_extension(&mut r, &mut parsed),
            Err(Error::Unsupported("field pictures"))
        ));
    }
}
