// Edge cases for byte-granular dependence profiling. short, int and
// long loads and stores are recast over char buffers at every byte
// offset of a 10 KiB window, so they straddle several 4 KiB page
// boundaries wherever the buffers sit; a heap block is freed and
// re-allocated inside the loop; and the parallel loop sits in a
// function called twice, so values written by the first invocation
// are read by the second. [scr] is rewritten before it is read in
// every iteration (privatizable); [buf] carries values across
// iterations and invocations (shared). [tally] is only read by the
// first invocation and read, then written, by the second: a store
// pairs with no read of an earlier invocation.
char *buf;
char scr[10248];
long sums[16];
long tally[4];

void sweep(int round)
{
  int it;
#pragma parallel
  for (it = 0; it < 16; it++) {
    int base = it * 640;
    int o;
    long acc = 0;
    for (o = base; o < base + 640; o++) {
      short *sp = (short *)(buf + o);
      int *ip = (int *)(buf + o);
      long *lp = (long *)(buf + o);
      acc = acc + *lp % 1000;
      *sp = (short)(o + round);
      acc = acc + *ip % 1000;
      *ip = o * 3 + round;
      acc = acc + *sp;
      *lp = acc;
    }
    for (o = base; o < base + 640; o++) {
      *(long *)(&scr[o]) = o + it;
      *(int *)(&scr[o + 4]) = o * 5;
      *(short *)(&scr[o + 6]) = (short)o;
    }
    for (o = base + 639; o >= base; o--) {
      acc = acc + *(short *)(&scr[o]) + *(int *)(&scr[o + 1]) % 7;
      acc = acc + *(long *)(&scr[o]) % 11;
    }
    if (round == 1) acc = acc + tally[it % 4];
    else {
      long t = tally[it % 4];
      tally[it % 4] = t + acc % 7;
    }
    long *tmp = (long *)malloc(32);
    tmp[0] = acc;
    tmp[1] = acc / 8;
    acc = tmp[0] - tmp[1];
    free(tmp);
    tmp = (long *)malloc(32);
    tmp[2] = acc;
    sums[it] = tmp[2] + tmp[3];
    free(tmp);
  }
}

int main(void)
{
  buf = (char *)malloc(16 * 640 + 8);
  sweep(1);
  sweep(2);
  long total = 0;
  int i;
  for (i = 0; i < 16; i++) total = total + sums[i] % 100003;
  for (i = 0; i < 4; i++) total = total + tally[i];
  printf("recast %d\n", (int)(total % 1000003));
  free(buf);
  return 0;
}
