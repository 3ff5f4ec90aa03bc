/* SHA-256 block compression (FIPS 180-4, section 6.2.2).

   The one kernel behind every hash in the system: Sha256.update feeds
   it every full 64-byte block of its input in a single call, and
   finalize feeds it the padded tail.  Portable C99: no intrinsics and
   no CPU dispatch, so the digest is the same on every host.

   The chaining state is a 32-byte OCaml bytes buffer holding the eight
   H words big-endian -- exactly the digest layout, so finalize is a
   plain copy.  The stub reads and writes byte buffers only: it never
   allocates and never stores an OCaml value, which is what makes the
   [@@noalloc] binding sound.  Offsets and block counts are checked on
   the OCaml side before the call. */

#include <stdint.h>
#include <stddef.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
  0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
  0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
  0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
  0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
  0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))
#define BSIG0(x) (ROTR(x, 2) ^ ROTR(x, 13) ^ ROTR(x, 22))
#define BSIG1(x) (ROTR(x, 6) ^ ROTR(x, 11) ^ ROTR(x, 25))
#define SSIG0(x) (ROTR(x, 7) ^ ROTR(x, 18) ^ ((x) >> 3))
#define SSIG1(x) (ROTR(x, 17) ^ ROTR(x, 19) ^ ((x) >> 10))
#define CH(x, y, z) (((x) & (y)) ^ (~(x) & (z)))
#define MAJ(x, y, z) (((x) & (y)) ^ ((x) & (z)) ^ ((y) & (z)))

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void store_be32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

/* One round with the working variables named by position rather than
   moved: eight consecutive rounds rotate the names back to the start,
   so the loop body below needs no register shuffling. */
#define ROUND(a, b, c, d, e, f, g, h, i)                          \
  do {                                                            \
    uint32_t t1 = (h) + BSIG1(e) + CH(e, f, g) + K[i] + w[i];     \
    uint32_t t2 = BSIG0(a) + MAJ(a, b, c);                        \
    (d) += t1;                                                    \
    (h) = t1 + t2;                                                \
  } while (0)

static void compress(uint32_t st[8], const unsigned char *p, size_t nblocks)
{
  uint32_t w[64];
  for (; nblocks > 0; nblocks--, p += 64) {
    int i;
    for (i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (i = 16; i < 64; i++)
      w[i] = SSIG1(w[i - 2]) + w[i - 7] + SSIG0(w[i - 15]) + w[i - 16];
    uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
    for (i = 0; i < 64; i += 8) {
      ROUND(a, b, c, d, e, f, g, h, i);
      ROUND(h, a, b, c, d, e, f, g, i + 1);
      ROUND(g, h, a, b, c, d, e, f, i + 2);
      ROUND(f, g, h, a, b, c, d, e, i + 3);
      ROUND(e, f, g, h, a, b, c, d, i + 4);
      ROUND(d, e, f, g, h, a, b, c, i + 5);
      ROUND(c, d, e, f, g, h, a, b, i + 6);
      ROUND(b, c, d, e, f, g, h, a, i + 7);
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
    st[4] += e; st[5] += f; st[6] += g; st[7] += h;
  }
}

/* dialed_sha256_compress state data off nblocks: fold the [nblocks]
   64-byte blocks of [data] starting at byte [off] into [state]. */
value dialed_sha256_compress(value vstate, value vdata, value voff,
                             value vnblocks)
{
  unsigned char *s = Bytes_val(vstate);
  uint32_t st[8];
  int i;
  for (i = 0; i < 8; i++) st[i] = load_be32(s + 4 * i);
  compress(st, Bytes_val(vdata) + Long_val(voff), (size_t)Long_val(vnblocks));
  for (i = 0; i < 8; i++) store_be32(s + 4 * i, st[i]);
  return Val_unit;
}
