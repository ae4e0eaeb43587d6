// multi: the stencil, wordhist and treework kernels of
// examples/programs/ as three parallel loops of one program.
// Chosen because profiling runs the whole program once per parallel
// loop, so this program shows that cost three times over; because the
// domain executor replicates all three loops (two carry a flow
// dependence, one allocates in its body), the path with no write log;
// and because it adds double arithmetic and a DOACROSS ordered
// histogram merge to the pool. The treework loop's counter is renamed
// from j to q, because MiniC forbids shadowing one local by another.
double field[512];
double temp[512];
double total;

char text[8192];
int local_counts[64];
int histogram[64];

struct tnode {
  int key;
  struct tnode *left;
  struct tnode *right;
};
struct tnode *root;
long answer;

void count_chunk(int base, int len)
{
  int i;
  for (i = 0; i < 64; i++) local_counts[i] = 0;
  for (i = 0; i < len; i++) {
    int c = text[base + i] & 63;
    local_counts[c] = local_counts[c] + 1;
  }
}

void insert(int key)
{
  struct tnode *n = (struct tnode *)malloc(sizeof(struct tnode));
  n->key = key;
  n->left = 0;
  n->right = 0;
  if (root == 0) { root = n; return; }
  struct tnode *cur = root;
  while (1) {
    if (key < cur->key) {
      if (cur->left == 0) { cur->left = n; return; }
      cur = cur->left;
    } else {
      if (cur->right == 0) { cur->right = n; return; }
      cur = cur->right;
    }
  }
}

int sum_free(struct tnode *t)
{
  if (t == 0) return 0;
  int s = t->key + sum_free(t->left) + sum_free(t->right);
  free(t);
  return s;
}

int main(void)
{
  int i;
  for (i = 0; i < 512; i++) field[i] = 0.001 * (i % 97);
  int sweep;
#pragma parallel
  for (sweep = 0; sweep < 40; sweep++) {
    int j;
    for (j = 1; j < 511; j++)
      temp[j] = 0.25 * field[j - 1] + 0.5 * field[j] + 0.25 * field[j + 1];
    double m = 0.0;
    for (j = 1; j < 511; j++)
      if (temp[j] > m) m = temp[j];
    total = total + m;
  }
  printf("%.6f\n", total);

  srand(77);
  for (i = 0; i < 8192; i++) text[i] = rand() % 120;
  int chunk;
#pragma parallel
  for (chunk = 0; chunk < 32; chunk++) {
    count_chunk(chunk * 256, 256);
    int k;
    for (k = 0; k < 64; k++)
      histogram[k] = histogram[k] + local_counts[k];
  }
  int cs = 0;
  for (i = 0; i < 64; i++) cs = cs * 31 % 1000003 + histogram[i];
  printf("hist %d\n", cs);

  int task;
#pragma parallel
  for (task = 0; task < 48; task++) {
    root = 0;
    int q;
    for (q = 0; q < 24; q++)
      insert((task * 31 + q * q * 7) % 100);
    answer = answer + sum_free(root) % 1009;
  }
  printf("answer %d\n", (int)answer);
  return 0;
}
