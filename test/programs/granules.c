// Edge cases for granule-level dependence profiling, where the four
// bytes of an aligned int share one shadow record until an access
// covers them only partly. The parallel loop sits in a function called
// twice, and each case pins an edge or exposure mark that a byte
// profiler finds and a wrong granule profiler loses:
// - [fresh]: every invocation loads an int no earlier access touched,
//   then stores a char into its byte 2 (an anti edge from the load:
//   the byte must keep the reader the whole int had);
// - [words]: one char-store site writes bytes 0-3 of an int twice per
//   iteration, with a char load of byte 2 between the passes (an anti
//   edge from that load: the re-stored bytes equal their old state,
//   but byte 2 still has a reader);
// - [once]: an int written only by the first invocation gets an
//   out-of-loop char store into byte 1, then an out-of-loop int read
//   (bytes 0, 2 and 3 still hold the loop's value: downwards-exposed);
// - [mixed]: an int store, a char store into byte 1, then an int load
//   (a flow edge from each store).
int fresh[32];
int words[16];
int once[16];
int mixed[16];
int sums[16];

void sweep(int round)
{
  int i;
#pragma parallel
  for (i = 0; i < 16; i++) {
    int *fp = &fresh[(round - 1) * 16 + i];
    int v = *fp;
    *((char *)fp + 2) = (char)(v + i + 1);
    char *wp = (char *)&words[i];
    int c = 0;
    int k;
    for (k = 0; k < 8; k++) {
      wp[k % 4] = (char)(k + round + c);
      if (k == 3) c = wp[2];
    }
    if (round == 1) once[i] = i * 7 + 1;
    int *mp = &mixed[i];
    *mp = i * 3 + round;
    *((char *)mp + 1) = (char)(i + round);
    sums[i] = sums[i] + *mp + words[i] % 1000 + c;
  }
}

int main(void)
{
  sweep(1);
  *((char *)&once[5] + 1) = 9;
  int t = once[5];
  sweep(2);
  int total = t;
  int i;
  for (i = 0; i < 16; i++) total = total + sums[i] % 10007;
  for (i = 0; i < 32; i++) total = total + fresh[i];
  printf("granules %d\n", total);
  return 0;
}
